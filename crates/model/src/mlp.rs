//! The two MLP variants of Fig. 1.

use crate::config::ModelConfig;
use crate::hooks::TapList;
use crate::scratch::MlpScratch;
use crate::walk::{self, Lane};
use crate::weights::BlockWeights;
use ft2_tensor::Matrix;

/// Run the block's MLP on `x` (`[n, hidden] -> [n, hidden]`), firing taps
/// after every linear layer; the result lands in `scratch.out`.
///
/// This is [`walk::mlp`] — the layer walk's MLP half — for one lane on the
/// dense executor.
#[allow(clippy::too_many_arguments)]
pub fn mlp_forward_into(
    config: &ModelConfig,
    weights: &BlockWeights,
    block_idx: usize,
    x: &Matrix,
    start_pos: usize,
    step: usize,
    taps: &mut TapList<'_>,
    scratch: &mut MlpScratch,
) {
    let lane = Lane {
        rows: x.rows(),
        start_pos,
        step,
        seq: &(),
        tap: Some(taps),
    };
    // The MLP neither rotates nor attends: no table.
    walk::dense_pass(config, None, lane, |pass| {
        walk::mlp(pass, weights, block_idx, x, scratch)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerKind;
    use crate::hooks::RecordingTap;
    use crate::weights::ModelWeights;

    /// [`mlp_forward_into`] at position 0, step 0, with fresh scratch.
    fn mlp(config: &ModelConfig, weights: &BlockWeights, x: &Matrix, taps: &mut TapList<'_>) -> Matrix {
        let mut scratch = MlpScratch::default();
        mlp_forward_into(config, weights, 0, x, 0, 0, taps, &mut scratch);
        scratch.out
    }

    #[test]
    fn opt_mlp_fires_fc_taps_in_order() {
        let config = ModelConfig::tiny_opt();
        let weights = ModelWeights::build(&config);
        let mut rec = RecordingTap::all();
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let x = Matrix::from_fn(2, config.hidden, |_, c| (c % 3) as f32 * 0.3);
        let y = mlp(&config, &weights.blocks[0], &x, &mut taps);
        drop(taps);
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), config.hidden);
        let kinds: Vec<LayerKind> = rec.captures.iter().map(|(c, _)| c.point.layer).collect();
        assert_eq!(kinds, vec![LayerKind::Fc1, LayerKind::Fc2]);
        // FC1 capture has ffn columns worth of data.
        assert_eq!(rec.captures[0].1.len(), 2 * config.ffn);
    }

    #[test]
    fn llama_mlp_fires_gate_up_down() {
        let config = ModelConfig::tiny_llama();
        let weights = ModelWeights::build(&config);
        let mut rec = RecordingTap::all();
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let x = Matrix::from_fn(1, config.hidden, |_, c| ((c * 7) % 5) as f32 * 0.2 - 0.4);
        let _ = mlp(&config, &weights.blocks[0], &x, &mut taps);
        drop(taps);
        let kinds: Vec<LayerKind> = rec.captures.iter().map(|(c, _)| c.point.layer).collect();
        assert_eq!(
            kinds,
            vec![LayerKind::GateProj, LayerKind::UpProj, LayerKind::DownProj]
        );
    }

    #[test]
    fn gated_mlp_is_gate_times_up() {
        // With a zero up-projection, the MLP output must be exactly zero
        // regardless of the gate (down(0) = 0, no bias in llama style).
        let config = ModelConfig::tiny_llama();
        let mut weights = ModelWeights::build(&config);
        {
            let (_, up, _) = weights.blocks[0].gated.as_mut().unwrap();
            for v in up.weight.as_mut_slice() {
                *v = 0.0;
            }
        }
        let mut taps = TapList::new();
        let x = Matrix::from_fn(1, config.hidden, |_, c| c as f32 * 0.01);
        let y = mlp(&config, &weights.blocks[0], &x, &mut taps);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }
}
