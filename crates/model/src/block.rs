//! The pre-norm decoder block's normalisation (both architecture styles);
//! the block itself is [`crate::walk::block`], which the tests here drive.

use crate::config::{ModelConfig, NormKind};
use crate::weights::NormParams;
use ft2_tensor::{layer_norm, rms_norm, Matrix};

/// Per-position activation growth rate. Pre-norm LLMs exhibit a systematic
/// increase of activation magnitudes along the sequence (residual-stream
/// norm growth / "massive activations"); it is the reason first-token
/// bounds must be scaled before they can cover later tokens (Fig. 9 — the
/// unscaled bounds clip benign late-position values). The block input is
/// scaled by `1 + POSITION_GAIN * position` after normalisation so every
/// linear-layer output inherits the drift.
pub const POSITION_GAIN: f32 = 0.012;

/// The configured normalisation of `x` into a caller-owned buffer, without
/// the positional gain (the walk adds that per row; the final norm before
/// the LM head, where the paper's protected layers have all run, does not).
pub fn normed_into(config: &ModelConfig, params: &NormParams, x: &Matrix, y: &mut Matrix) {
    y.reset(x.rows(), x.cols());
    y.as_mut_slice().copy_from_slice(x.as_slice());
    match config.norm {
        NormKind::LayerNorm => layer_norm(y, &params.gamma, &params.beta, 1e-5),
        NormKind::RmsNorm => rms_norm(y, &params.gamma, 1e-6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::KvCacheBlock;
    use crate::config::RopeTable;
    use crate::hooks::{RecordingTap, TapList};
    use crate::scratch::BlockScratch;
    use crate::walk::{self, Lane};
    use crate::weights::{BlockWeights, ModelWeights};

    /// [`walk::block`] as block 0 at position 0, step 0: one lane on the
    /// dense executor over a contiguous cache.
    fn run_block(
        config: &ModelConfig,
        weights: &BlockWeights,
        x: &mut Matrix,
        cache: &mut KvCacheBlock,
        taps: &mut TapList<'_>,
    ) {
        let rope = RopeTable::build(config);
        let lane = Lane {
            rows: x.rows(),
            start_pos: 0,
            step: 0,
            seq: &(),
            tap: Some(taps),
        };
        walk::dense_pass(config, Some(&rope), lane, |pass| {
            walk::block(pass, weights, 0, x, cache, &mut BlockScratch::default())
        });
    }

    #[test]
    fn block_preserves_shape_and_is_deterministic() {
        let config = ModelConfig::tiny_opt();
        let weights = ModelWeights::build(&config);
        let mut taps = TapList::new();
        let x0 = Matrix::from_fn(3, config.hidden, |r, c| ((r + c) % 7) as f32 * 0.1);

        let mut xa = x0.clone();
        let mut ca = KvCacheBlock::new(config.hidden);
        run_block(&config, &weights.blocks[0], &mut xa, &mut ca, &mut taps);

        let mut xb = x0.clone();
        let mut cb = KvCacheBlock::new(config.hidden);
        run_block(&config, &weights.blocks[0], &mut xb, &mut cb, &mut taps);

        assert_eq!(xa, xb);
        assert_eq!(xa.rows(), 3);
        assert_eq!(xa.cols(), config.hidden);
        assert_ne!(xa, x0, "block must transform its input");
    }

    #[test]
    fn residual_passes_information_through_zeroed_branches() {
        // If attention and MLP weights output ~nothing, the block is close
        // to identity thanks to the residual branches — the mechanism that
        // makes NaN-to-zero correction safe (Take-away #2).
        let config = ModelConfig::tiny_opt();
        let mut weights = ModelWeights::build(&config);
        let b = &mut weights.blocks[0];
        for lin in [&mut b.out_proj] {
            for v in lin.weight.as_mut_slice() {
                *v = 0.0;
            }
            if let Some(bias) = &mut lin.bias {
                for v in bias {
                    *v = 0.0;
                }
            }
        }
        if let Some((_, fc2)) = &mut b.fc {
            for v in fc2.weight.as_mut_slice() {
                *v = 0.0;
            }
            if let Some(bias) = &mut fc2.bias {
                for v in bias {
                    *v = 0.0;
                }
            }
        }
        let mut taps = TapList::new();
        let x0 = Matrix::from_fn(2, config.hidden, |r, c| (r as f32 - c as f32) * 0.05);
        let mut x = x0.clone();
        let mut cache = KvCacheBlock::new(config.hidden);
        run_block(&config, &weights.blocks[0], &mut x, &mut cache, &mut taps);
        assert!(x.max_abs_diff(&x0) < 1e-6);
    }

    #[test]
    fn all_block_layers_fire_exactly_once_per_call() {
        let config = ModelConfig::tiny_llama();
        let weights = ModelWeights::build(&config);
        let mut rec = RecordingTap::all();
        {
            let mut taps = TapList::new();
            taps.push(&mut rec);
            let mut x = Matrix::from_fn(1, config.hidden, |_, c| (c % 2) as f32 * 0.4);
            let mut cache = KvCacheBlock::new(config.hidden);
            run_block(&config, &weights.blocks[0], &mut x, &mut cache, &mut taps);
        }
        let kinds: Vec<_> = rec.captures.iter().map(|(c, _)| c.point.layer).collect();
        let expected: Vec<_> = config.block_layers().to_vec();
        assert_eq!(kinds, expected);
    }
}
