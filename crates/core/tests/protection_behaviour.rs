//! Behavioural tests of the protection stack against live models.

use ft2_core::critical::critical_layers;
use ft2_core::profile::offline_profile;
use ft2_core::protect::{Correction, Coverage, NanPolicy, Protector};
use ft2_core::{Scheme, SchemeFactory};
use ft2_fault::{FaultDuration, FaultInjector, FaultSite, FaultTarget, ProtectionFactory};
use ft2_model::{LayerKind, TapList, TapPoint, ZooModel};
use ft2_parallel::WorkStealingPool;
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::DatasetId;

fn inject_and_generate(
    model: &ft2_model::Model,
    prompt: &[u32],
    site: FaultSite,
    protection: Option<&SchemeFactory>,
    gen: usize,
) -> Vec<u32> {
    let mut injector = FaultInjector::new(site);
    let mut boxes = protection.map(|f| f.make()).unwrap_or_default();
    let mut taps = TapList::new();
    taps.push(&mut injector);
    for b in boxes.iter_mut() {
        taps.push(b.as_mut());
    }
    model.generate(prompt, gen, &mut taps).tokens
}

#[test]
fn ft2_masks_a_catastrophic_critical_layer_fault() {
    let model = ZooModel::Opt6_7B.spec().build();
    let prompt = generate_prompts(DatasetId::Squad, 1, 77)[0].clone();
    let mut clean_taps = TapList::new();
    let clean = model.generate(&prompt, 12, &mut clean_taps).tokens;

    // A decode-step MSB exponent flip in V_PROJ: the archetypal huge value.
    let site = FaultSite {
        step: 2,
        point: TapPoint {
            block: 2,
            layer: LayerKind::VProj,
        },
        element: 5,
        bits: vec![14],
        duration: FaultDuration::Transient,
        target: FaultTarget::Activation,
    };
    let faulty = inject_and_generate(&model, &prompt, site.clone(), None, 12);
    // The unprotected fault corrupts at least the hidden state; the output
    // may or may not change — but under FT2 the output must equal clean.
    let ft2 = SchemeFactory::new(Scheme::Ft2, model.config(), None);
    let protected = inject_and_generate(&model, &prompt, site, Some(&ft2), 12);
    assert_eq!(
        protected, clean,
        "FT2 failed to mask a V_PROJ exponent flip"
    );
    let _ = faulty;
}

#[test]
fn nan_faults_are_corrected_by_ft2_even_at_first_token() {
    let model = ZooModel::Llama2_7B.spec().build();
    let prompt = generate_prompts(DatasetId::Squad, 1, 78)[0].clone();
    let mut clean_taps = TapList::new();
    let clean = model.generate(&prompt, 10, &mut clean_taps).tokens;

    // GATE_PROJ outputs are wide: values in (1,2) flip to NaN on bit 14.
    // Even during the first token (step 0), FT2 corrects NaNs.
    let site = FaultSite {
        step: 0,
        point: TapPoint {
            block: 1,
            layer: LayerKind::UpProj,
        },
        element: 9,
        bits: vec![14],
        duration: FaultDuration::Transient,
        target: FaultTarget::Activation,
    };
    let ft2 = SchemeFactory::new(Scheme::Ft2, model.config(), None);
    let protected = inject_and_generate(&model, &prompt, site.clone(), Some(&ft2), 10);
    // The output must at least be NaN-free and deterministic; on this site
    // it should equal the clean output.
    assert_eq!(protected.len(), clean.len());
    // Without protection, the same fault may propagate NaN into the logits.
    let unprotected = inject_and_generate(&model, &prompt, site, None, 10);
    assert_eq!(unprotected.len(), clean.len());
}

#[test]
fn protector_stats_reflect_activity() {
    let model = ZooModel::Opt6_7B.spec().build();
    let prompt = generate_prompts(DatasetId::Squad, 1, 79)[0].clone();
    let mut protector = Protector::ft2_online(
        Coverage::linears(critical_layers(model.config().style)),
        2.0,
    );
    {
        let mut taps = TapList::new();
        taps.push(&mut protector);
        let _ = model.generate(&prompt, 10, &mut taps);
    }
    // 3 critical kinds x 4 blocks x 10 steps.
    assert_eq!(protector.stats.invocations, 3 * 4 * 10);
    // Clean run: nothing should be clipped or NaN-corrected.
    assert_eq!(protector.stats.clipped, 0);
    assert_eq!(protector.stats.nans_corrected, 0);
}

#[test]
fn full_protection_covers_all_block_layers() {
    let model = ZooModel::Qwen2_7B.spec().build();
    let factory = SchemeFactory::new(Scheme::FullProtection, model.config(), None);
    let prompt = generate_prompts(DatasetId::Squad, 1, 80)[0].clone();
    let mut boxes = factory.make();
    {
        let mut taps = TapList::new();
        for b in boxes.iter_mut() {
            taps.push(b.as_mut());
        }
        let _ = model.generate(&prompt, 6, &mut taps);
    }
    // Cannot read stats through the box directly; re-run with a concrete
    // protector to check the invocation count instead.
    let mut protector = Protector::ft2_online(
        Coverage::linears(model.config().block_layers().to_vec()),
        2.0,
    );
    {
        let mut taps = TapList::new();
        taps.push(&mut protector);
        let _ = model.generate(&prompt, 6, &mut taps);
    }
    assert_eq!(protector.stats.invocations, 7 * 4 * 6);
}

#[test]
fn offline_bounds_shrink_with_clip_to_zero_on_outliers() {
    // Take-away #8 mechanism check: with tight alternative bounds, clamping
    // preserves more of a large legitimate value than zeroing.
    let mut store = ft2_core::BoundsStore::new();
    let point = TapPoint {
        block: 0,
        layer: LayerKind::DownProj,
    };
    store.set(point, ft2_core::LayerBounds { lo: -1.0, hi: 1.0 });

    let run = |correction: Correction| {
        let mut p = Protector::offline(
            Coverage::linears(vec![LayerKind::DownProj]),
            store.clone(),
            correction,
            NanPolicy::ToZero,
        );
        let mut m = ft2_tensor::Matrix::from_vec(1, 2, vec![4.0, 0.5]);
        let ctx = ft2_model::TapCtx {
            point,
            hook: ft2_model::HookKind::LinearOutput,
            step: 1,
            first_pos: 3,
            dtype: ft2_tensor::DType::F16,
        };
        use ft2_model::LayerTap;
        p.on_output(&ctx, &mut m);
        m.get(0, 0)
    };
    assert_eq!(run(Correction::ClampToBound), 1.0); // keeps the sign+scale
    assert_eq!(run(Correction::ClipToZero), 0.0); // destroys it
}

#[test]
fn offline_profiling_then_protection_roundtrip_is_transparent() {
    // Bounds profiled on the same inputs as evaluated must never corrupt a
    // fault-free run.
    let model = ZooModel::Vicuna7B.spec().build();
    let pool = WorkStealingPool::new(2);
    let prompts = generate_prompts(DatasetId::Squad, 4, 81);
    let offline = std::sync::Arc::new(offline_profile(&model, &prompts, 10, &pool));
    let factory = SchemeFactory::new(Scheme::Ft2Offline, model.config(), Some(offline));
    for prompt in &prompts {
        let mut clean_taps = TapList::new();
        let clean = model.generate(prompt, 10, &mut clean_taps).tokens;
        let mut boxes = factory.make();
        let mut taps = TapList::new();
        for b in boxes.iter_mut() {
            taps.push(b.as_mut());
        }
        let protected = model.generate(prompt, 10, &mut taps).tokens;
        assert_eq!(clean, protected);
    }
}
