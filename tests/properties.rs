//! Cross-crate property-based tests.

use ft2::core::bounds::{BoundsStore, LayerBounds};
use ft2::core::protect::{Correction, Coverage, NanPolicy, Protector};
use ft2::fault::{FaultDuration, FaultInjector, FaultModel, FaultSite, FaultTarget, SiteSampler};
use ft2::model::engine::RecoveryPolicy;
use ft2::model::shard::ShardPlan;
use ft2::model::{
    HookKind, LayerKind, LayerTap, ModelConfig, ShardTapList, ShardedModel, TapCtx, TapPoint,
    ZooModel,
};
use ft2::numeric::{crc64_f32s, Xoshiro256StarStar};
use ft2::parallel::WorkStealingPool;
use ft2::tensor::{DType, Matrix};
use proptest::prelude::*;

fn ctx(layer: LayerKind, step: usize) -> TapCtx {
    TapCtx {
        point: TapPoint { block: 0, layer },
        hook: HookKind::LinearOutput,
        step,
        first_pos: 0,
        dtype: DType::F16,
    }
}

proptest! {
    /// After an offline protector runs, every non-NaN value of a covered
    /// layer lies inside the bounds (clamp) or is zero (clip).
    #[test]
    fn protector_output_respects_bounds(
        values in prop::collection::vec(-100.0f32..100.0, 1..64),
        lo in -5.0f32..-0.1,
        hi in 0.1f32..5.0,
        clamp in any::<bool>(),
    ) {
        let mut store = BoundsStore::new();
        let point = TapPoint { block: 0, layer: LayerKind::VProj };
        store.set(point, LayerBounds { lo, hi });
        let correction = if clamp { Correction::ClampToBound } else { Correction::ClipToZero };
        let mut p = Protector::offline(
            Coverage::linears(vec![LayerKind::VProj]),
            store,
            correction,
            NanPolicy::ToZero,
        );
        let mut m = Matrix::from_vec(1, values.len(), values.clone());
        p.on_output(&ctx(LayerKind::VProj, 0), &mut m);
        for (i, &v) in m.as_slice().iter().enumerate() {
            prop_assert!(!v.is_nan());
            if clamp {
                prop_assert!(v >= lo && v <= hi, "value {v} at {i} outside [{lo},{hi}]");
            } else {
                prop_assert!(v == 0.0 || (v >= lo && v <= hi));
            }
        }
    }

    /// Protection is idempotent: applying the same protector state twice
    /// changes nothing the second time.
    #[test]
    fn protection_is_idempotent(
        values in prop::collection::vec(-50.0f32..50.0, 1..32),
    ) {
        let mut store = BoundsStore::new();
        let point = TapPoint { block: 0, layer: LayerKind::Fc2 };
        store.set(point, LayerBounds { lo: -1.0, hi: 1.0 });
        let mut p = Protector::offline(
            Coverage::linears(vec![LayerKind::Fc2]),
            store,
            Correction::ClampToBound,
            NanPolicy::ToZero,
        );
        let mut m = Matrix::from_vec(1, values.len(), values);
        p.on_output(&ctx(LayerKind::Fc2, 0), &mut m);
        let once = m.clone();
        p.on_output(&ctx(LayerKind::Fc2, 0), &mut m);
        prop_assert_eq!(m, once);
    }

    /// The injector corrupts exactly one element, and only at its site.
    #[test]
    fn injector_touches_exactly_one_element(
        cols in 1usize..64,
        element in 0usize..256,
        bit in 0u32..16,
    ) {
        let site = FaultSite {
            step: 0,
            point: TapPoint { block: 0, layer: LayerKind::KProj },
            element,
            bits: vec![bit],
            duration: FaultDuration::Transient,
            target: FaultTarget::Activation,
        };
        let mut inj = FaultInjector::new(site);
        let values: Vec<f32> = (0..cols).map(|i| 0.25 + i as f32 * 0.01).collect();
        let mut m = Matrix::from_vec(1, cols, values.clone());
        inj.on_output(&ctx(LayerKind::KProj, 0), &mut m);
        let changed: Vec<usize> = m
            .as_slice()
            .iter()
            .zip(&values)
            .enumerate()
            .filter(|(_, (a, b))| {
                // NaN != anything; treat NaN as changed.
                a.is_nan() || *a != *b
            })
            .map(|(i, _)| i)
            .collect();
        // Exactly one element changed (a flip always changes the pattern;
        // the value can only be bit-identical if the f16 quantised pattern
        // maps back to the same float, which a xor never does).
        prop_assert_eq!(changed.len(), 1);
        prop_assert_eq!(changed[0], element % cols);
    }

    /// Site sampling always produces sites valid for the model shape.
    #[test]
    fn sampled_sites_are_valid(seed in any::<u64>()) {
        let config = ModelConfig::tiny_llama();
        let sampler = SiteSampler::new(&config, 6, 9);
        let mut rng = Xoshiro256StarStar::new(seed);
        for fm in FaultModel::ALL {
            let site = sampler.sample(&mut rng, fm, DType::F16);
            prop_assert!(site.step < 9);
            prop_assert!(site.point.block < config.blocks);
            prop_assert!(config.block_layers().contains(&site.point.layer));
            let rows = if site.step == 0 { 6 } else { 1 };
            prop_assert!(site.element < rows * config.out_features(site.point.layer));
            for &b in &site.bits {
                prop_assert!(b < 16);
            }
        }
    }

    /// Bounds scaling grows monotonically with the scale factor.
    #[test]
    fn bound_scaling_is_monotone(
        lo in -10.0f32..0.0,
        hi in 0.0f32..10.0,
        s1 in 1.0f32..4.0,
        extra in 0.1f32..4.0,
    ) {
        let b = LayerBounds { lo, hi };
        let a = b.scaled(s1);
        let c = b.scaled(s1 + extra);
        prop_assert!(c.lo <= a.lo + 1e-6);
        prop_assert!(c.hi >= a.hi - 1e-6);
        // Original interval always contained.
        prop_assert!(a.lo <= lo && a.hi >= hi);
    }

    /// Bit flips are involutions: applying the same fault-model bit pattern
    /// twice restores the stored value bit-exactly, for every fault model
    /// and every storage format (including NaN-producing exponent flips,
    /// whose payloads the narrow formats must preserve).
    #[test]
    fn bit_flips_are_involutions(
        raw in -1000.0f32..1000.0,
        seed in any::<u64>(),
    ) {
        for format in [DType::F16, DType::F32, DType::Bf16] {
            let stored = format.flip(raw, &[]);
            let mut rng = Xoshiro256StarStar::new(seed);
            for fm in FaultModel::ALL {
                let bits = fm.sample_bits(&mut rng, format);
                let mut v = stored;
                for &b in &bits {
                    v = format.flip(v, &[b]);
                }
                prop_assert_ne!(
                    v.to_bits(), stored.to_bits(),
                    "a xor must change the stored pattern ({:?}, {:?}, bits {:?})",
                    fm, format, bits.clone()
                );
                for &b in &bits {
                    v = format.flip(v, &[b]);
                }
                prop_assert_eq!(
                    v.to_bits(), stored.to_bits(),
                    "double flip must restore exactly ({:?}, {:?}, bits {:?})",
                    fm, format, bits
                );
            }
        }
    }

    /// Checksum soundness: corrupting any one element of a tile with any
    /// fault model's bit flips changes the tile's CRC-64 checksum. (The
    /// corruption is confined to one 32-bit word — a burst well within the
    /// 64-bit window CRC-64 detects unconditionally.)
    #[test]
    fn any_bit_flip_changes_tile_checksum(
        tile in prop::collection::vec(-4.0f32..4.0, 1..64),
        element in 0usize..256,
        seed in any::<u64>(),
    ) {
        let stored: Vec<f32> = tile.iter().map(|&v| DType::F16.flip(v, &[])).collect();
        let clean = crc64_f32s(&stored);
        let mut rng = Xoshiro256StarStar::new(seed);
        for fm in FaultModel::ALL {
            let bits = fm.sample_bits(&mut rng, DType::F16);
            let mut corrupted = stored.clone();
            let idx = element % corrupted.len();
            for &b in &bits {
                corrupted[idx] = DType::F16.flip(corrupted[idx], &[b]);
            }
            prop_assert_ne!(
                crc64_f32s(&corrupted), clean,
                "flip of bits {:?} at element {} left the checksum unchanged",
                bits, idx
            );
        }
    }

    /// Online FT2 protector: after the prefill, every value it passes
    /// through on later steps lies within the scaled bounds.
    #[test]
    fn online_protector_clamps_after_prefill(
        prefill in prop::collection::vec(-2.0f32..2.0, 4..32),
        decode in prop::collection::vec(-100.0f32..100.0, 4..32),
    ) {
        let mut p = Protector::ft2_online(
            Coverage::linears(vec![LayerKind::VProj]),
            2.0,
        );
        let mut m0 = Matrix::from_vec(1, prefill.len(), prefill);
        p.on_output(&ctx(LayerKind::VProj, 0), &mut m0);
        let bounds = p
            .current_bounds(&TapPoint { block: 0, layer: LayerKind::VProj })
            .unwrap();
        let mut m1 = Matrix::from_vec(1, decode.len(), decode);
        p.on_output(&ctx(LayerKind::VProj, 3), &mut m1);
        for &v in m1.as_slice() {
            prop_assert!(bounds.contains(v), "{v} outside {bounds:?}");
        }
    }

    /// Sharding is a bit-exact involution for every zoo architecture and
    /// shard count — including counts that divide neither the head count
    /// (Qwen2-1.5B has 3 heads) nor the hidden width.
    #[test]
    fn zoo_shard_partition_reassembly_is_an_involution(
        zoo_idx in 0usize..7,
        n in 1usize..7,
    ) {
        let model = ZooModel::ALL[zoo_idx].spec().build();
        let config = model.config();
        let golden = model.weights();
        let plan = ShardPlan::new(config, n);
        let shards = plan.partition(config, golden);
        // Scramble every sharded linear of the target, then reassemble.
        let mut target = golden.clone();
        for bw in &mut target.blocks {
            for kind in config.block_layers() {
                let lin = bw.layer_mut(*kind).unwrap();
                for v in lin.weight.as_mut_slice() {
                    *v = 7.75;
                }
                if let Some(b) = lin.bias.as_mut() {
                    for v in b {
                        *v = -7.75;
                    }
                }
            }
        }
        plan.reassemble_into(&shards, &mut target);
        prop_assert_eq!(
            &target, golden,
            "{}: partition/reassemble not an involution at n={}",
            config.name, n
        );
    }

    /// Fault-free sharded generation is token-identical across shard
    /// counts for every zoo architecture and any prompt: the f64
    /// all-reduce seam makes the partition invisible to the token stream.
    #[test]
    fn zoo_sharded_generation_is_shard_count_invariant(
        zoo_idx in 0usize..7,
        n in 2usize..6,
        seed in any::<u64>(),
        prompt_len in 3usize..8,
    ) {
        let model = ZooModel::ALL[zoo_idx].spec().build();
        let vocab = model.config().vocab as u64;
        let prompt: Vec<u32> = (0..prompt_len)
            .map(|i| ((seed >> (7 * (i % 8))) % vocab) as u32)
            .collect();
        let pool = WorkStealingPool::new(2);
        let heartbeat = std::time::Duration::from_millis(250);
        let golden = ShardedModel::new(&model, 1).generate_with(
            &pool,
            &prompt,
            6,
            &mut ShardTapList::new(),
            RecoveryPolicy::disabled(),
            heartbeat,
        );
        prop_assert!(golden.completed());
        let out = ShardedModel::new(&model, n).generate_with(
            &pool,
            &prompt,
            6,
            &mut ShardTapList::new(),
            RecoveryPolicy::disabled(),
            heartbeat,
        );
        prop_assert!(out.completed());
        prop_assert_eq!(out.storms, 0, "fault-free run reported a storm");
        prop_assert_eq!(
            out.tokens, golden.tokens,
            "{}: {}-shard tokens diverge from 1-shard",
            model.config().name, n
        );
    }
}
