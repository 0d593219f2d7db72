//! Synthetic "pretrained checkpoint" construction.
//!
//! We cannot ship 7B-parameter pretrained weights, but the paper's
//! resilience phenomena do not depend on language competence — they depend
//! on the *value statistics* each layer produces (§4.1.1, Figs. 8 & 12):
//!
//! * `K_PROJ` / `Q_PROJ` / `FC1` / `GATE_PROJ` outputs are **wide**: a large
//!   fraction of values lies in the NaN-vulnerable intervals (1,2)∪(−2,−1).
//! * `V_PROJ` / `OUT_PROJ` / `FC2` / `UP_PROJ` / `DOWN_PROJ` outputs
//!   concentrate **near zero** — few NaN-vulnerable values, and a bit flip
//!   of the leading exponent bit turns them into extreme magnitudes.
//! * `FC2` / `DOWN_PROJ` additionally contain a small population of genuine
//!   **outlier channels** with large activations — the documented
//!   outlier-feature phenomenon of real LLMs that motivates FT2's
//!   clip-to-bound (rather than clip-to-zero) correction.
//!
//! The gains below target those output standard deviations given the
//! unit-variance block inputs guaranteed by pre-normalisation. Each model in
//! the zoo uses a different seed, giving an independent "checkpoint" with
//! the same statistical shape.

use crate::config::{ArchStyle, LayerKind, ModelConfig, NormKind};
use ft2_numeric::{Rng, Xoshiro256StarStar};
use ft2_tensor::{DType, Matrix};

/// Target output standard deviation per layer kind (for unit-variance
/// inputs). These values reproduce the Fig. 8 distribution split.
fn target_output_std(kind: LayerKind) -> f32 {
    match kind {
        LayerKind::KProj | LayerKind::QProj => 1.25,
        LayerKind::Fc1 | LayerKind::GateProj => 1.30,
        LayerKind::VProj | LayerKind::OutProj => 0.30,
        LayerKind::UpProj => 0.30,
        LayerKind::Fc2 | LayerKind::DownProj => 0.35,
    }
}

/// Fraction of DOWN_PROJ output channels that are outlier features. The
/// paper pinpoints the "large neuron values" in DOWN_PROJ (Fig. 12); FC2 in
/// the OPT family stays conventional.
const OUTLIER_CHANNEL_FRACTION: f64 = 0.03;
/// Weight-scale multiplier of outlier channels.
const OUTLIER_GAIN: f32 = 8.0;
/// LM-head weight-tying mix: 1.0 = fully tied to the embedding, 0.0 = fully
/// random. Controls how confident (large-margin) greedy decoding is;
/// tunable via `FT2_TIE_ALPHA` for calibration studies.
fn lm_head_tie_alpha() -> f32 {
    static ALPHA: std::sync::OnceLock<f32> = std::sync::OnceLock::new();
    *ALPHA.get_or_init(|| {
        std::env::var("FT2_TIE_ALPHA")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.5)
    })
}

/// One linear layer: weight `[out, in]` (row per output feature) plus an
/// optional bias.
#[derive(Clone, Debug, PartialEq)]
pub struct Linear {
    /// Weight matrix, `[out_features, in_features]`.
    pub weight: Matrix,
    /// Optional bias, length `out_features`.
    pub bias: Option<Vec<f32>>,
}

impl Linear {
    /// Apply to an input `[n, in] -> [n, out]` and quantise the stored
    /// output to `dtype`, writing into a caller-owned output matrix so the
    /// decode hot path reuses one allocation per layer slot per step.
    pub fn forward_into(&self, x: &Matrix, dtype: DType, out: &mut Matrix) {
        ft2_tensor::matmul_transb_into(x, &self.weight, out);
        if let Some(b) = &self.bias {
            ft2_tensor::add_bias_inplace(out, b);
        }
        out.quantize(dtype);
    }

    /// [`Linear::forward_into`] on the panel-major batch GEMM
    /// ([`ft2_tensor::matmul_transb_batch_into`]): one weight-panel pass is
    /// amortised over all batch rows, and every output row is bit-identical
    /// to what [`Linear::forward_into`] produces for that row alone — the
    /// invariant the serving runtime's batch-vs-single token-identity
    /// guarantee rests on.
    pub fn forward_batch_into(&self, x: &Matrix, dtype: DType, out: &mut Matrix) {
        ft2_tensor::matmul_transb_batch_into(x, &self.weight, out);
        if let Some(b) = &self.bias {
            ft2_tensor::add_bias_inplace(out, b);
        }
        out.quantize(dtype);
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }
}

/// Normalisation parameters at a block boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct NormParams {
    /// Scale, length `hidden`.
    pub gamma: Vec<f32>,
    /// Shift (LayerNorm only), length `hidden`.
    pub beta: Vec<f32>,
}

/// Weights of one decoder block.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockWeights {
    /// Pre-attention norm.
    pub attn_norm: NormParams,
    /// Pre-MLP norm.
    pub mlp_norm: NormParams,
    /// Key projection.
    pub k_proj: Linear,
    /// Query projection.
    pub q_proj: Linear,
    /// Value projection.
    pub v_proj: Linear,
    /// Attention output projection.
    pub out_proj: Linear,
    /// OPT-style: FC1 / FC2. Llama-style: `None`.
    pub fc: Option<(Linear, Linear)>,
    /// Llama-style: gate / up / down. OPT-style: `None`.
    pub gated: Option<(Linear, Linear, Linear)>,
}

impl BlockWeights {
    /// The linear layer of the given kind, if present in this block.
    pub fn layer(&self, kind: LayerKind) -> Option<&Linear> {
        match kind {
            LayerKind::KProj => Some(&self.k_proj),
            LayerKind::QProj => Some(&self.q_proj),
            LayerKind::VProj => Some(&self.v_proj),
            LayerKind::OutProj => Some(&self.out_proj),
            LayerKind::Fc1 => self.fc.as_ref().map(|(a, _)| a),
            LayerKind::Fc2 => self.fc.as_ref().map(|(_, b)| b),
            LayerKind::GateProj => self.gated.as_ref().map(|(g, _, _)| g),
            LayerKind::UpProj => self.gated.as_ref().map(|(_, u, _)| u),
            LayerKind::DownProj => self.gated.as_ref().map(|(_, _, d)| d),
        }
    }

    /// Mutable access to the linear layer of the given kind (used by
    /// stored-state fault injection and by integrity repair).
    pub fn layer_mut(&mut self, kind: LayerKind) -> Option<&mut Linear> {
        match kind {
            LayerKind::KProj => Some(&mut self.k_proj),
            LayerKind::QProj => Some(&mut self.q_proj),
            LayerKind::VProj => Some(&mut self.v_proj),
            LayerKind::OutProj => Some(&mut self.out_proj),
            LayerKind::Fc1 => self.fc.as_mut().map(|(a, _)| a),
            LayerKind::Fc2 => self.fc.as_mut().map(|(_, b)| b),
            LayerKind::GateProj => self.gated.as_mut().map(|(g, _, _)| g),
            LayerKind::UpProj => self.gated.as_mut().map(|(_, u, _)| u),
            LayerKind::DownProj => self.gated.as_mut().map(|(_, _, d)| d),
        }
    }
}

/// All weights of a model.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelWeights {
    /// Token embedding table `[vocab, hidden]`.
    pub embed: Matrix,
    /// Learned positional embeddings `[max_seq, hidden]` (OPT-style only;
    /// Llama-style uses rotary embeddings computed on the fly).
    pub pos_embed: Option<Matrix>,
    /// Decoder blocks.
    pub blocks: Vec<BlockWeights>,
    /// Final normalisation before the LM head.
    pub final_norm: NormParams,
    /// LM head `[vocab, hidden]` (no bias).
    pub lm_head: Linear,
}

fn random_linear(
    rng: &mut Xoshiro256StarStar,
    out: usize,
    inp: usize,
    std: f32,
    bias: bool,
    dtype: DType,
) -> Linear {
    let mut weight = Matrix::from_fn(out, inp, |_, _| (rng.normal() as f32) * std);
    weight.quantize(dtype);
    let bias = if bias {
        Some((0..out).map(|_| (rng.normal() as f32) * 0.02).collect())
    } else {
        None
    };
    Linear { weight, bias }
}

/// Number of "spike tokens" whose embedding direction is written into
/// V_PROJ rows of every block, and the activation magnitude they produce.
/// This models token-dependent massive activations: specific (mostly rare
/// or entity) tokens light up specific value channels far beyond the bulk
/// distribution. Bounds profiled on a corpus that never contains a spike
/// token are too tight for one that does — the Fig. 3 mechanism.
/// V_PROJ spikes per block (realism: several channels carry
/// token-dependent massive activations).
const SPIKE_TOKENS: usize = 16;
/// MLP spike *pairs* per block: kept at one so that each block's FC2/DOWN
/// bound hinges on a single domain token — a corpus that lacks that token
/// profiles a bound ~2x too tight (the Fig. 3 transfer gap), while any
/// corpus that contains it (72 profiling inputs of the same dataset almost
/// surely do) is covered.
const MLP_SPIKE_TOKENS: usize = 2;
/// Spike magnitudes are drawn from a narrow band: covering *any one* spike
/// token while profiling then yields a per-layer bound adequate for all of
/// them, whereas a corpus that contains *none* of a layer's spike tokens
/// (the Fig. 3 alternative datasets) profiles a bound ~2x too tight.
const SPIKE_MAGNITUDE_LO: f64 = 3.0;
const SPIKE_MAGNITUDE_HI: f64 = 3.8;

fn add_value_spikes(
    rng: &mut Xoshiro256StarStar,
    config: &ModelConfig,
    embed: &Matrix,
    v_proj: &mut Linear,
) {
    let hidden = config.hidden;
    let vocab = config.vocab;
    for _ in 0..SPIKE_TOKENS {
        // Spike tokens live in the domain/rare regions (ids >= 316/512 of
        // the canonical layout), matching where real tokenizers put their
        // rare, large-norm tokens.
        let lo = vocab * 316 / 512;
        let tok = lo + rng.index(vocab - lo);
        let row = rng.index(v_proj.weight.rows());
        let e = embed.row(tok);
        let norm = e.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        // w_row += (magnitude / sqrt(h)) * unit(e): the LayerNormed input
        // at this token's position is ~aligned with unit(e) and has norm
        // ~sqrt(h), so the row activates at ~magnitude.
        let magnitude = rng.range_f64(SPIKE_MAGNITUDE_LO, SPIKE_MAGNITUDE_HI) as f32;
        let coeff = magnitude / (hidden as f32).sqrt();
        for (w, &ev) in v_proj.weight.row_mut(row).iter_mut().zip(e) {
            *w += coeff * ev / norm;
        }
    }
    v_proj.weight.quantize(config.dtype);
}

/// Token-keyed MLP spike pairs: for a handful of (mostly rare/entity)
/// tokens, one FC1/GATE-or-UP row fires at magnitude `c` and feeds a
/// dedicated FC2/DOWN output coordinate, writing a large value straight
/// into the residual stream — the "massive activations" phenomenon. These
/// are the values that a foreign profiling corpus misses (Fig. 3) and that
/// clip-to-zero correction would destroy (Take-away #8).
fn add_mlp_spikes(
    rng: &mut Xoshiro256StarStar,
    config: &ModelConfig,
    embed: &Matrix,
    first: &mut Linear,
    second: &mut Linear,
) {
    let hidden = config.hidden;
    let vocab = config.vocab;
    for _ in 0..MLP_SPIKE_TOKENS {
        // MLP spike tokens live in the domain (entity) region: common in
        // encyclopedic QA corpora, rare in prompts/tweets/code/translation
        // corpora.
        let lo = vocab * 316 / 512;
        let hi = vocab * 416 / 512;
        let tok = lo + rng.index(hi - lo);
        let j = rng.index(first.weight.rows());
        let r = rng.index(second.weight.rows());
        let e = embed.row(tok);
        let norm = e.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
        let magnitude = rng.range_f64(SPIKE_MAGNITUDE_LO, SPIKE_MAGNITUDE_HI) as f32;
        let coeff = magnitude / (hidden as f32).sqrt();
        for (w, &ev) in first.weight.row_mut(j).iter_mut().zip(e) {
            *w += coeff * ev / norm;
        }
        second.weight.row_mut(r)[j] += 1.0;
    }
    first.weight.quantize(config.dtype);
    second.weight.quantize(config.dtype);
}

fn block_linear(
    rng: &mut Xoshiro256StarStar,
    config: &ModelConfig,
    kind: LayerKind,
) -> Linear {
    let inp = config.in_features(kind);
    let out = config.out_features(kind);
    let std = target_output_std(kind) / (inp as f32).sqrt();
    let mut lin = random_linear(rng, out, inp, std, config.bias, config.dtype);
    // Outlier channels in DOWN_PROJ (Fig. 12).
    if matches!(kind, LayerKind::DownProj) {
        let n_outliers = ((out as f64 * OUTLIER_CHANNEL_FRACTION).ceil() as usize).max(1);
        let picks = rng.sample_indices(out, n_outliers);
        for r in picks {
            for v in lin.weight.row_mut(r) {
                *v *= OUTLIER_GAIN;
            }
        }
        lin.weight.quantize(config.dtype);
    }
    lin
}

fn norm_params(rng: &mut Xoshiro256StarStar, hidden: usize, norm: NormKind) -> NormParams {
    let gamma = (0..hidden)
        .map(|_| 1.0 + (rng.normal() as f32) * 0.05)
        .collect();
    let beta = match norm {
        NormKind::LayerNorm => (0..hidden).map(|_| (rng.normal() as f32) * 0.02).collect(),
        NormKind::RmsNorm => vec![0.0; hidden],
    };
    NormParams { gamma, beta }
}

/// Per-token embedding magnitude, by vocabulary region. Real tokenizers
/// have frequency-stratified embedding norms (rare tokens carry larger
/// embeddings); the region boundaries mirror `ft2_tasks::vocab::Region`
/// (checked by an integration test) so that datasets with different
/// token mixes genuinely exercise different activation ranges — the
/// property behind the Fig. 3 bound-transfer degradation.
pub fn token_embed_scale(token: usize, vocab: usize) -> f32 {
    // Scale the canonical 512-token region layout to any vocab size.
    let r = token * 512 / vocab.max(1);
    match r {
        0..=15 => 1.0,    // special/punctuation
        16..=115 => 1.1,  // numbers
        116..=315 => 0.9, // common words
        316..=415 => 1.2, // domain entities
        _ => 1.35,        // rare/multilingual/code
    }
}

/// Unigram log-frequency prior added to the LM-head logits, by region.
/// Pretrained LMs emit frequent tokens unless the context demands
/// otherwise; without this prior a random-weight model emits rare "spike"
/// tokens as readily as common ones, which no real decoder does — and
/// which would expose FT2's first-token bounds to activation ranges that
/// never occur in practice.
pub fn token_logit_prior(token: usize, vocab: usize) -> f32 {
    let r = token * 512 / vocab.max(1);
    match r {
        0..=15 => 0.5,     // punctuation: very frequent
        16..=115 => -0.2,  // numbers
        116..=315 => 0.0,  // common words
        316..=415 => -3.5, // entities: context-driven
        _ => -5.0,         // rare tokens
    }
}

impl ModelWeights {
    /// Build the synthetic checkpoint for a configuration (deterministic in
    /// `config.seed`).
    pub fn build(config: &ModelConfig) -> ModelWeights {
        let mut rng = Xoshiro256StarStar::for_stream(config.seed, &[0xC0DE]);
        let hidden = config.hidden;

        let vocab = config.vocab;
        let mut embed = Matrix::from_fn(config.vocab, hidden, |r, _| {
            (rng.normal() as f32) * token_embed_scale(r, vocab)
        });
        embed.quantize(config.dtype);

        let pos_embed = match config.style {
            ArchStyle::OptStyle => {
                let mut p =
                    Matrix::from_fn(config.max_seq, hidden, |_, _| (rng.normal() as f32) * 0.1);
                p.quantize(config.dtype);
                Some(p)
            }
            ArchStyle::LlamaStyle => None,
        };

        let mut blocks = Vec::with_capacity(config.blocks);
        for _ in 0..config.blocks {
            let attn_norm = norm_params(&mut rng, hidden, config.norm);
            let mlp_norm = norm_params(&mut rng, hidden, config.norm);
            let k_proj = block_linear(&mut rng, config, LayerKind::KProj);
            let q_proj = block_linear(&mut rng, config, LayerKind::QProj);
            let mut v_proj = block_linear(&mut rng, config, LayerKind::VProj);
            add_value_spikes(&mut rng, config, &embed, &mut v_proj);
            let out_proj = block_linear(&mut rng, config, LayerKind::OutProj);
            let (fc, gated) = match config.style {
                ArchStyle::OptStyle => {
                    let mut fc1 = block_linear(&mut rng, config, LayerKind::Fc1);
                    let mut fc2 = block_linear(&mut rng, config, LayerKind::Fc2);
                    add_mlp_spikes(&mut rng, config, &embed, &mut fc1, &mut fc2);
                    (Some((fc1, fc2)), None)
                }
                ArchStyle::LlamaStyle => {
                    let gate = block_linear(&mut rng, config, LayerKind::GateProj);
                    // Spikes ride the UP path (gate stays statistical): the
                    // gated product then carries them into DOWN_PROJ.
                    let mut up = block_linear(&mut rng, config, LayerKind::UpProj);
                    let mut down = block_linear(&mut rng, config, LayerKind::DownProj);
                    add_mlp_spikes(&mut rng, config, &embed, &mut up, &mut down);
                    (None, Some((gate, up, down)))
                }
            };
            blocks.push(BlockWeights {
                attn_norm,
                mlp_norm,
                k_proj,
                q_proj,
                v_proj,
                out_proj,
                fc,
                gated,
            });
        }

        let final_norm = norm_params(&mut rng, hidden, config.norm);
        // Partially weight-tied LM head: each head row mixes the token's
        // embedding row with fresh noise. Weight tying is standard practice
        // (GPT-2, OPT tie input/output embeddings) and is what gives real
        // models *confident* next-token margins: the residual stream carries
        // the context's embedding components, so aligned rows score far above
        // the field. Without it a random transformer has near-zero logit
        // margins and every tiny perturbation flips tokens — unlike the
        // pretrained checkpoints the paper studies, whose greedy answer
        // tokens are high-confidence.
        let inv_sqrt_h = 1.0 / (hidden as f32).sqrt();
        let mut lm_head_w = Matrix::from_fn(config.vocab, hidden, |r, c| {
            let tied = embed.get(r, c);
            let noise = rng.normal() as f32;
            let alpha = lm_head_tie_alpha();
            (alpha * tied + (1.0 - alpha) * noise) * inv_sqrt_h
        });
        lm_head_w.quantize(config.dtype);
        let prior: Vec<f32> = (0..config.vocab)
            .map(|t| token_logit_prior(t, config.vocab))
            .collect();
        let lm_head = Linear {
            weight: lm_head_w,
            bias: Some(prior),
        };

        ModelWeights {
            embed,
            pos_embed,
            blocks,
            final_norm,
            lm_head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let c = ModelConfig::tiny_opt();
        let a = ModelWeights::build(&c);
        let b = ModelWeights::build(&c);
        assert_eq!(a.embed, b.embed);
        assert_eq!(a.blocks[0].k_proj.weight, b.blocks[0].k_proj.weight);
        let mut c2 = c.clone();
        c2.seed += 1;
        let d = ModelWeights::build(&c2);
        assert_ne!(a.embed, d.embed);
    }

    #[test]
    fn shapes_match_config() {
        let c = ModelConfig::tiny_llama();
        let w = ModelWeights::build(&c);
        assert_eq!(w.embed.rows(), c.vocab);
        assert_eq!(w.embed.cols(), c.hidden);
        assert!(w.pos_embed.is_none());
        assert_eq!(w.blocks.len(), c.blocks);
        let b = &w.blocks[0];
        assert!(b.fc.is_none());
        let (gate, up, down) = b.gated.as_ref().unwrap();
        assert_eq!(gate.weight.rows(), c.ffn);
        assert_eq!(up.weight.rows(), c.ffn);
        assert_eq!(down.weight.rows(), c.hidden);
        assert_eq!(down.weight.cols(), c.ffn);
        assert_eq!(w.lm_head.weight.rows(), c.vocab);
        // Llama-style has no biases.
        assert!(b.k_proj.bias.is_none());
    }

    #[test]
    fn opt_style_has_bias_and_positions() {
        let c = ModelConfig::tiny_opt();
        let w = ModelWeights::build(&c);
        assert!(w.pos_embed.is_some());
        assert!(w.blocks[0].k_proj.bias.is_some());
        assert!(w.blocks[0].fc.is_some());
        assert!(w.blocks[0].gated.is_none());
    }

    #[test]
    fn wide_layers_are_wider_than_tight_layers() {
        // The K_PROJ weight distribution must produce wider outputs than
        // V_PROJ: compare weight standard deviations.
        let c = ModelConfig::tiny_opt();
        let w = ModelWeights::build(&c);
        let std_of = |m: &Matrix| {
            let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
            (m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
                / m.len() as f32)
                .sqrt()
        };
        let k_std = std_of(&w.blocks[0].k_proj.weight);
        let o_std = std_of(&w.blocks[0].out_proj.weight);
        assert!(
            k_std > 3.0 * o_std,
            "K_PROJ weights must be much wider (k={k_std}, out={o_std})"
        );
    }

    #[test]
    fn down_proj_has_outlier_rows() {
        let c = ModelConfig::tiny_llama();
        let w = ModelWeights::build(&c);
        let (_, _, fc2) = w.blocks[0].gated.as_ref().unwrap();
        // Row max |w| distribution: the outlier rows should stand out by a
        // factor close to OUTLIER_GAIN.
        let row_norms: Vec<f32> = (0..fc2.weight.rows())
            .map(|r| fc2.weight.row(r).iter().map(|v| v.abs()).fold(0.0, f32::max))
            .collect();
        let max = row_norms.iter().copied().fold(0.0, f32::max);
        let median = {
            let mut s = row_norms.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(max > 4.0 * median, "no outlier channels (max={max}, median={median})");
    }

    #[test]
    fn linear_forward_applies_bias_and_quantises() {
        let lin = Linear {
            weight: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
            bias: Some(vec![0.5, -0.5]),
        };
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut y = Matrix::zeros(0, 0);
        lin.forward_into(&x, DType::F32, &mut y);
        assert_eq!(y.as_slice(), &[1.5, 1.5]);
        lin.forward_into(&x, DType::F16, &mut y);
        assert_eq!(y.as_slice(), &[1.5, 1.5]); // exactly representable
    }
}
