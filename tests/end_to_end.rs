//! Cross-crate integration tests: the full protect-and-generate pipeline.

use ft2::core::{offline_profile, Scheme, SchemeFactory};
use ft2::fault::{
    Campaign, CampaignConfig, FaultModel, Outcome, ProtectionFactory, StepWeighting, Unprotected,
};
use ft2::model::{Model, ModelConfig, TapList, ZooModel};
use ft2::parallel::WorkStealingPool;
use ft2::tasks::datasets::generate_prompts;
use ft2::tasks::{DatasetId, TaskSpec, TaskType};
use std::sync::Arc;

fn pool() -> WorkStealingPool {
    WorkStealingPool::new(2)
}

fn quick_cfg(fm: FaultModel, trials: usize, gen: usize) -> CampaignConfig {
    CampaignConfig {
        trials_per_input: trials,
        gen_tokens: gen,
        ..CampaignConfig::quick(fm)
    }
}

#[test]
fn protected_generation_equals_clean_generation_without_faults() {
    // FT2's online protection must be transparent on fault-free inference
    // (the Fig. 3 property for well-fitting bounds).
    let model = ZooModel::Opt6_7B.spec().build();
    let prompts = generate_prompts(DatasetId::Squad, 6, 11);
    let factory = SchemeFactory::new(Scheme::Ft2, model.config(), None);
    for prompt in &prompts {
        let mut clean_taps = TapList::new();
        let clean = model.generate(prompt, 14, &mut clean_taps);

        let mut boxes = factory.make();
        let mut taps = TapList::new();
        for b in boxes.iter_mut() {
            taps.push(b.as_mut());
        }
        let protected = model.generate(prompt, 14, &mut taps);
        assert_eq!(clean.tokens, protected.tokens, "FT2 altered a clean run");
    }
}

#[test]
fn campaign_pipeline_end_to_end() {
    let model = ZooModel::Qwen2_1_5B.spec().build();
    let pool = pool();
    let prompts = generate_prompts(DatasetId::Squad, 4, 5);
    let task = TaskSpec::new(TaskType::Qa, 12);
    let judge = task.judge();
    let campaign = Campaign::new(
        &model,
        &prompts,
        &judge,
        quick_cfg(FaultModel::ExponentBit, 25, 12),
        &pool,
    );
    let unprot = campaign.run(&Unprotected, &pool);
    let ft2 = campaign.run(
        &SchemeFactory::new(Scheme::Ft2, model.config(), None),
        &pool,
    );
    assert_eq!(unprot.counts.total(), 100);
    assert_eq!(ft2.counts.total(), 100);
    // FT2 never increases the SDC count on the same trial set.
    assert!(
        ft2.counts.sdc <= unprot.counts.sdc,
        "FT2 {} vs unprotected {}",
        ft2.counts.sdc,
        unprot.counts.sdc
    );
}

#[test]
fn ft2_beats_no_protection_across_fault_models() {
    // Aggregated over the three fault models on a fixed seed, FT2 must
    // strictly reduce SDCs (the paper's headline claim, miniaturised).
    let model = ZooModel::Opt6_7B.spec().build();
    let pool = pool();
    let prompts = generate_prompts(DatasetId::Squad, 6, 21);
    let task = TaskSpec::new(TaskType::Qa, 14);
    let judge = task.judge();
    let mut unprot_sdc = 0;
    let mut ft2_sdc = 0;
    for fm in FaultModel::ALL {
        let campaign = Campaign::new(&model, &prompts, &judge, quick_cfg(fm, 40, 14), &pool);
        unprot_sdc += campaign.run(&Unprotected, &pool).counts.sdc;
        ft2_sdc += campaign
            .run(
                &SchemeFactory::new(Scheme::Ft2, model.config(), None),
                &pool,
            )
            .counts
            .sdc;
    }
    assert!(unprot_sdc > 0, "campaign too small to observe any SDC");
    assert!(
        (ft2_sdc as f64) < 0.5 * unprot_sdc as f64,
        "FT2 ({ft2_sdc}) should cut SDCs at least in half vs unprotected ({unprot_sdc})"
    );
}

#[test]
fn exp_faults_are_most_severe_single_bit_least() {
    let model = ZooModel::Llama2_7B.spec().build();
    let pool = pool();
    let prompts = generate_prompts(DatasetId::Squad, 6, 33);
    let task = TaskSpec::new(TaskType::Qa, 14);
    let judge = task.judge();
    let mut rates = Vec::new();
    for fm in FaultModel::ALL {
        let campaign = Campaign::new(&model, &prompts, &judge, quick_cfg(fm, 60, 14), &pool);
        rates.push(campaign.run(&Unprotected, &pool).sdc_rate());
    }
    // Order in FaultModel::ALL: 1-bit, 2-bit, EXP.
    assert!(
        rates[2] >= rates[0],
        "EXP ({}) must be at least as severe as 1-bit ({})",
        rates[2],
        rates[0]
    );
}

#[test]
fn offline_and_online_bounds_are_comparably_effective() {
    let model = ZooModel::Vicuna7B.spec().build();
    let pool = pool();
    let prompts = generate_prompts(DatasetId::Squad, 6, 44);
    let profile = generate_prompts(DatasetId::Squad, 10, 45);
    let offline = Arc::new(offline_profile(&model, &profile, 14, &pool));
    let task = TaskSpec::new(TaskType::Qa, 14);
    let judge = task.judge();
    let campaign = Campaign::new(
        &model,
        &prompts,
        &judge,
        quick_cfg(FaultModel::ExponentBit, 50, 14),
        &pool,
    );
    let on = campaign.run(
        &SchemeFactory::new(Scheme::Ft2, model.config(), None),
        &pool,
    );
    let off = campaign.run(
        &SchemeFactory::new(Scheme::Ft2Offline, model.config(), Some(offline)),
        &pool,
    );
    let unprot = campaign.run(&Unprotected, &pool);
    // Both protect; neither is dramatically worse than the other.
    assert!(on.counts.sdc <= unprot.counts.sdc);
    assert!(off.counts.sdc <= unprot.counts.sdc);
}

#[test]
fn judge_semantics_shifted_answers_are_masked() {
    // End-to-end check of the §2.3 semantic rule through the campaign
    // pipeline: outputs that still contain the answer span are not SDCs.
    let task = TaskSpec::new(TaskType::Qa, 12);
    let judge = task.judge();
    let reference: Vec<u32> = (200..212).collect();
    let answer = task.answer(&reference).to_vec();
    let mut shifted = vec![1u32, 2];
    shifted.extend_from_slice(&answer);
    shifted.extend(std::iter::repeat_n(3u32, 12 - shifted.len().min(12)));
    use ft2::fault::OutcomeJudge;
    assert_eq!(
        judge.classify(&reference, &shifted),
        Outcome::MaskedSemantic
    );
}

#[test]
fn campaign_reproducible_across_pool_sizes_and_runs() {
    let model = Model::new(ModelConfig::tiny_llama());
    let prompts = generate_prompts(DatasetId::TweetEval, 4, 9);
    let task = TaskSpec::new(TaskType::Qa, 10);
    let judge = task.judge();

    let run_with = |threads: usize| {
        let pool = WorkStealingPool::new(threads);
        let campaign = Campaign::new(
            &model,
            &prompts,
            &judge,
            quick_cfg(FaultModel::DoubleBit, 20, 10),
            &pool,
        );
        let r = campaign.run(&Unprotected, &pool);
        (r.counts, r.per_layer)
    };
    let a = run_with(1);
    let b = run_with(4);
    assert_eq!(a, b, "campaign must be thread-count independent");
}

#[test]
fn step_weighting_controls_first_token_exposure() {
    let model = ZooModel::Opt2_7B.spec().build();
    let pool = pool();
    let prompts = generate_prompts(DatasetId::Squad, 4, 50);
    let task = TaskSpec::new(TaskType::Qa, 12);
    let judge = task.judge();

    let mut cfg = quick_cfg(FaultModel::SingleBit, 50, 12);
    cfg.step_weighting = StepWeighting::ByComputation;
    let campaign = Campaign::new(&model, &prompts, &judge, cfg, &pool);
    let by_comp = campaign.run(&Unprotected, &pool);

    let cfg = quick_cfg(FaultModel::SingleBit, 50, 12);
    let campaign = Campaign::new(&model, &prompts, &judge, cfg, &pool);
    let by_time = campaign.run(&Unprotected, &pool);

    let share = |r: &ft2::fault::CampaignResult| {
        r.first_token_faults.total() as f64 / r.counts.total() as f64
    };
    assert!(
        share(&by_comp) > 2.0 * share(&by_time),
        "computation weighting must hit the prefill far more often ({} vs {})",
        share(&by_comp),
        share(&by_time)
    );
}
