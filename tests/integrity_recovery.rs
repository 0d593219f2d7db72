//! Integration tests for the stored-state integrity layer: fault-free
//! transparency, scrub-driven SDC reduction on persistent weight faults,
//! and thread-count invariance of the scrub/repair counters.

use ft2::core::{IntegrityConfig, Scheme, SchemeFactory, WeightChecksums};
use ft2::fault::{
    Campaign, CampaignConfig, CampaignResult, FaultDuration, FaultModel, FaultTarget,
};
use ft2::model::engine::RecoveryPolicy;
use ft2::model::{Model, StateTapList, TapList, ZooModel};
use ft2::parallel::WorkStealingPool;
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::{DatasetId, TaskSpec, TaskType};
use std::sync::Arc;

/// A persistent-weight campaign config sized so the unprotected run
/// observes silent corruption.
fn persistent_weight_cfg(trials: usize) -> CampaignConfig {
    CampaignConfig {
        trials_per_input: trials,
        gen_tokens: 16,
        fault_duration: FaultDuration::Persistent,
        fault_target: FaultTarget::Weight,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    }
}

/// Scheme factory with the full integrity layer: golden checksums, a scrub
/// rate of one full tile sweep per step, and the KV guard.
fn integrity_factory(model: &Model, scheme: Scheme, kv_guard: bool) -> SchemeFactory {
    let checksums = Arc::new(WeightChecksums::build(model.config(), model.weights()));
    let scrub_rate = checksums.num_tiles();
    SchemeFactory::new(scheme, model.config(), None).with_integrity(IntegrityConfig {
        scrub_tiles_per_step: scrub_rate,
        kv_guard,
        checksums: Some(checksums),
    })
}

fn run_campaign(
    model: &Model,
    factory: &SchemeFactory,
    threads: usize,
    trials: usize,
) -> CampaignResult {
    let pool = WorkStealingPool::new(threads);
    let prompts = generate_prompts(DatasetId::Gsm8k, 6, 0xF72_CAFE ^ 0xEA71);
    let task = TaskSpec::new(TaskType::Math, 16);
    let judge = task.judge();
    let campaign = Campaign::new(
        model,
        &prompts,
        &judge,
        persistent_weight_cfg(trials),
        &pool,
    );
    campaign.run(factory, &pool)
}

#[test]
fn fault_free_scrubbing_is_bit_transparent_and_never_repairs() {
    // The integrity layer must be invisible on a healthy model: scrubbing
    // verifies tiles but never "repairs" an uncorrupted one, the KV guard
    // never invalidates a healthy row, and the generated tokens are
    // bit-identical to a run with the layer disabled.
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let prompts = generate_prompts(DatasetId::Squad, 4, 11);
    let plain = SchemeFactory::new(Scheme::Ft2, model.config(), None);
    let scrubbed = integrity_factory(&model, Scheme::Ft2, true);
    use ft2::fault::ProtectionFactory;

    for prompt in &prompts {
        let mut clean_boxes = plain.make();
        let mut clean_taps = TapList::new();
        for b in clean_boxes.iter_mut() {
            clean_taps.push(b.as_mut());
        }
        let clean = model.generate(prompt, 14, &mut clean_taps);

        let mut boxes = scrubbed.make();
        let mut taps = TapList::new();
        for b in boxes.iter_mut() {
            taps.push(b.as_mut());
        }
        let mut state_boxes = scrubbed.make_state();
        let mut state = StateTapList::new();
        for b in state_boxes.iter_mut() {
            state.push(b.as_mut());
        }
        let out = model.generate_resilient(
            prompt,
            14,
            &mut taps,
            &mut state,
            RecoveryPolicy::retries(2).with_repair(),
        );

        assert_eq!(
            clean.tokens, out.tokens,
            "integrity layer altered a fault-free generation"
        );
        assert!(out.scrubbed_tiles > 0, "scrubber never ran");
        assert_eq!(out.repairs(), 0, "repair fired on a healthy model");
        assert_eq!(out.repair_retries, 0);
        assert_eq!(out.rollbacks, 0, "rollback fired on a fault-free run");
        assert!(!out.recovery_failed);
    }
}

#[test]
fn scrubbing_strictly_reduces_persistent_weight_sdcs() {
    // Same-seed persistent-weight campaigns on an unprotected model:
    // without scrubbing the flipped weight stays resident for the whole
    // generation and corrupts answers silently; with a full scrub sweep
    // per step the corruption is repaired from the golden copy before it
    // can spread.
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let off = run_campaign(
        &model,
        &SchemeFactory::new(Scheme::NoProtection, model.config(), None),
        4,
        20,
    );
    let on = run_campaign(
        &model,
        &integrity_factory(&model, Scheme::NoProtection, false),
        4,
        20,
    );

    assert!(
        off.counts.sdc > 0,
        "campaign too small to observe any persistent-weight SDC"
    );
    assert!(
        on.counts.sdc < off.counts.sdc,
        "scrubbing must strictly reduce SDCs: on {} vs off {}",
        on.counts.sdc,
        off.counts.sdc
    );
    assert!(on.weight_repairs > 0, "scrubber never repaired a tile");
    assert!(on.scrubbed_tiles > off.scrubbed_tiles);
}

#[test]
fn scrub_campaign_results_are_thread_count_invariant() {
    // The scrub cursor, repair counters, and trial outcomes all derive
    // from per-trial state, so the aggregate must be bit-identical no
    // matter how trials are scheduled across workers.
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let factory = integrity_factory(&model, Scheme::NoProtection, true);
    let serial = run_campaign(&model, &factory, 1, 5);
    let parallel = run_campaign(&model, &factory, 4, 5);
    assert_eq!(
        serial, parallel,
        "campaign results differ across thread counts"
    );
    assert!(serial.weight_repairs > 0);
}
