//! Behavioural invariants of the inference engine.

use ft2_model::attention::{attention_forward_into, KvCacheBlock};
use ft2_model::block::POSITION_GAIN;
use ft2_model::engine::KvCache;
use ft2_model::hooks::RecordingTap;
use ft2_model::{
    model_zoo, ArchStyle, AttnScratch, HookKind, KernelPolicy, LayerKind, Model, ModelConfig,
    TapList, ZooModel,
};
use proptest::prelude::*;

#[test]
fn generation_matches_across_identical_models() {
    // Two Model instances from the same config are the same checkpoint.
    let a = Model::new(ModelConfig::tiny_llama());
    let b = Model::new(ModelConfig::tiny_llama());
    let mut ta = TapList::new();
    let mut tb = TapList::new();
    let prompt = [5u32, 9, 33, 70, 41];
    assert_eq!(
        a.generate(&prompt, 10, &mut ta).tokens,
        b.generate(&prompt, 10, &mut tb).tokens
    );
}

#[test]
fn kv_cache_incremental_equals_batch_for_all_zoo_models() {
    // Engine-level KV-cache correctness across every architecture: the
    // hidden state for the last prompt token must match whether the prompt
    // was prefilled at once or token by token.
    for spec in model_zoo() {
        let model = spec.build();
        let prompt: Vec<u32> = vec![0, 17, 130, 321, 44, 229];

        let mut taps = TapList::new();
        let mut full_cache = KvCache::new(model.config());
        let h_full = model.forward_step(&prompt, 0, 0, &mut full_cache, &mut taps);
        let last_full = h_full.slice_rows(h_full.rows() - 1, h_full.rows());

        let mut inc_cache = KvCache::new(model.config());
        let mut last_inc = None;
        for (i, &tok) in prompt.iter().enumerate() {
            let h = model.forward_step(&[tok], i, i, &mut inc_cache, &mut taps);
            last_inc = Some(h);
        }
        let last_inc = last_inc.unwrap();
        let diff = last_full.max_abs_diff(&last_inc);
        assert!(
            diff < 2e-2,
            "{}: incremental vs batch prefill diff {diff}",
            spec.name()
        );
    }
}

/// Identity (i) of the layer walk: a joint prefill of 150 tokens equals a
/// joint prefill of the first `split` plus one single-token step per
/// remaining token — every K/V row of every block and the last hidden row,
/// bit for bit, tap-less, on the whole zoo. Each element comes out of the
/// same reduction whatever the row count, so nothing needs to replay a
/// sequence "in the shape it was first produced". Runs under whichever
/// GEMM kernel the process selected; `scripts/verify.sh` runs it once more
/// with `FT2_NO_SIMD=1`.
#[test]
fn joint_prefill_equals_incremental_prefill_bit_for_bit() {
    const LEN: usize = 150;
    for spec in model_zoo() {
        let model = spec.build();
        let vocab = model.config().vocab as u32;
        let tokens: Vec<u32> = (0..LEN as u32).map(|i| (i * 37 + 11) % vocab).collect();
        let mut taps = TapList::new();

        let mut joint = KvCache::new(model.config());
        let h_joint = model.forward_step(&tokens, 0, 0, &mut joint, &mut taps);
        let last_joint = h_joint.slice_rows(LEN - 1, LEN);

        for split in [1usize, 5, 16, 40] {
            let mut inc = KvCache::new(model.config());
            let mut last = model.forward_step(&tokens[..split], 0, 0, &mut inc, &mut taps);
            for (pos, &tok) in tokens.iter().enumerate().skip(split) {
                last = model.forward_step(&[tok], pos, pos - split + 1, &mut inc, &mut taps);
            }
            assert_eq!(last, last_joint, "{} split {split}: last hidden row", spec.name());
            for b in 0..joint.num_blocks() {
                assert_eq!(inc.block(b).k, joint.block(b).k, "{} split {split}: K of block {b}", spec.name());
                assert_eq!(inc.block(b).v, joint.block(b).v, "{} split {split}: V of block {b}", spec.name());
            }
        }
    }
}

#[test]
fn positional_gain_grows_activations_along_sequence() {
    // The Fig. 9 mechanism: per-layer output magnitudes drift upward with
    // absolute position.
    #[allow(clippy::assertions_on_constants)]
    const _: () = assert!(POSITION_GAIN > 0.0);
    let model = ZooModel::Opt6_7B.spec().build();
    let prompt: Vec<u32> = (0..24).map(|i| (i * 13 + 7) % 500).collect();
    let mut rec = RecordingTap::all();
    {
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let _ = model.generate(&prompt, 30, &mut taps);
    }
    // Average |V_PROJ| magnitude early vs late decode steps.
    let avg_at = |step_lo: usize, step_hi: usize| -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (c, data) in &rec.captures {
            if c.point.layer == LayerKind::VProj && c.step >= step_lo && c.step < step_hi {
                sum += data.iter().map(|v| v.abs() as f64).sum::<f64>();
                n += data.len();
            }
        }
        sum / n as f64
    };
    let early = avg_at(1, 6);
    let late = avg_at(24, 30);
    assert!(
        late > early * 1.05,
        "late-position activations ({late:.4}) should exceed early ones ({early:.4})"
    );
}

#[test]
fn activation_hooks_fire_only_for_mlp_first_linear() {
    for (config, expect_kind) in [
        (ModelConfig::tiny_opt(), LayerKind::Fc1),
        (ModelConfig::tiny_llama(), LayerKind::GateProj),
    ] {
        let model = Model::new(config);
        let mut rec = RecordingTap::all().including_activations();
        {
            let mut taps = TapList::new();
            taps.push(&mut rec);
            let _ = model.generate(&[1, 2, 3], 3, &mut taps);
        }
        let act_points: Vec<LayerKind> = rec
            .captures
            .iter()
            .filter(|(c, _)| c.hook == HookKind::ActivationOutput)
            .map(|(c, _)| c.point.layer)
            .collect();
        assert!(!act_points.is_empty());
        assert!(act_points.iter().all(|&k| k == expect_kind));
    }
}

#[test]
fn spike_tokens_produce_large_v_values() {
    // The massive-activation mechanism: some domain/rare tokens light up
    // V_PROJ rows well beyond the bulk distribution.
    let model = ZooModel::Opt6_7B.spec().build();
    let vocab = model.config().vocab;
    // Run all domain/rare tokens through one prefill and find the max.
    let prompt: Vec<u32> = (vocab * 316 / 512..vocab).map(|t| t as u32).collect();
    let mut rec = RecordingTap::all();
    {
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let mut cache = KvCache::new(model.config());
        let _ = model.forward_step(&prompt, 0, 0, &mut cache, &mut taps);
    }
    let mut vmax = 0.0f32;
    for (c, data) in &rec.captures {
        if c.point.layer == LayerKind::VProj {
            for &v in data {
                vmax = vmax.max(v.abs());
            }
        }
    }
    assert!(vmax > 2.0, "expected V spikes above 2.0, got {vmax}");
}

proptest! {
    /// Any prompt within vocab generates the requested number of tokens,
    /// all within vocab, on both architecture families.
    #[test]
    fn generation_is_total(
        prompt in prop::collection::vec(0u32..96, 1..12),
        gen in 1usize..12,
        llama in any::<bool>(),
    ) {
        let config = if llama { ModelConfig::tiny_llama() } else { ModelConfig::tiny_opt() };
        let vocab = config.vocab;
        let model = Model::new(config);
        let mut taps = TapList::new();
        let out = model.generate(&prompt, gen, &mut taps);
        prop_assert_eq!(out.tokens.len(), gen);
        prop_assert!(out.tokens.iter().all(|&t| (t as usize) < vocab));
    }

    /// The attention cache length always equals the number of processed
    /// positions.
    #[test]
    fn cache_length_tracks_positions(n1 in 1usize..6, n2 in 1usize..4) {
        let config = ModelConfig::tiny_opt();
        let weights = ft2_model::weights::ModelWeights::build(&config);
        let mut cache = KvCacheBlock::new(config.hidden);
        let mut taps = TapList::new();
        let mut scratch = AttnScratch::default();
        let x1 = ft2_tensor::Matrix::zeros(n1, config.hidden);
        attention_forward_into(
            &config, &weights.blocks[0], 0, &x1, 0, 0, &mut cache, &mut taps,
            KernelPolicy::Strict, None, &mut scratch,
        );
        prop_assert_eq!(cache.len(), n1);
        let x2 = ft2_tensor::Matrix::zeros(n2, config.hidden);
        attention_forward_into(
            &config, &weights.blocks[0], 0, &x2, n1, 1, &mut cache, &mut taps,
            KernelPolicy::Strict, None, &mut scratch,
        );
        prop_assert_eq!(cache.len(), n1 + n2);
    }

    /// Criticality sets never change with model scale — only with
    /// architecture style.
    #[test]
    fn arch_graph_is_scale_invariant(hidden_mult in 1usize..5) {
        let mut config = ModelConfig::tiny_llama();
        config.hidden = 16 * hidden_mult;
        config.heads = config.hidden / 8;
        let g1 = ft2_model::ArchGraph::for_config(&config);
        let g2 = ft2_model::ArchGraph::for_style(ArchStyle::LlamaStyle);
        let l1: Vec<_> = g1.layers().map(|(k, ops)| (k, ops.to_vec())).collect();
        let l2: Vec<_> = g2.layers().map(|(k, ops)| (k, ops.to_vec())).collect();
        prop_assert_eq!(l1, l2);
    }
}
