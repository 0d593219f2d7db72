//! Campaign engine invariants against live models.

use ft2_fault::{
    Campaign, CampaignConfig, ExactJudge, FaultModel, Outcome, OutcomeJudge, StepFilter,
    StepWeighting, Unprotected,
};
use ft2_model::{Model, ModelConfig};
use ft2_parallel::WorkStealingPool;

fn inputs() -> Vec<Vec<u32>> {
    vec![
        vec![1, 22, 33, 44, 5],
        vec![80, 70, 60, 50],
        vec![9, 8, 7, 6, 5, 4],
    ]
}

fn cfg(fm: FaultModel) -> CampaignConfig {
    CampaignConfig {
        trials_per_input: 16,
        gen_tokens: 8,
        ..CampaignConfig::quick(fm)
    }
}

#[test]
fn masked_identical_dominates_mantissa_faults() {
    // Single-bit faults hit mantissa bits 10/16 of the time; most of those
    // leave the output bit-identical. The masked-identical share must be
    // the majority under the 1-bit model.
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let mut c = cfg(FaultModel::SingleBit);
    c.trials_per_input = 80;
    let campaign = Campaign::new(&model, &ins, &judge, c, &pool);
    let r = campaign.run(&Unprotected, &pool);
    assert!(
        r.counts.masked_identical * 2 > r.counts.total(),
        "masked-identical must dominate: {:?}",
        r.counts
    );
}

#[test]
fn per_bit_class_totals_are_consistent() {
    let model = Model::new(ModelConfig::tiny_llama());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let campaign = Campaign::new(&model, &ins, &judge, cfg(FaultModel::SingleBit), &pool);
    let r = campaign.run(&Unprotected, &pool);
    let by_class: u64 = r.per_bit_class.values().map(|c| c.total()).sum();
    assert_eq!(by_class, r.counts.total());
    // Single-bit over f16: mantissa 10/16, exponent 5/16, sign 1/16.
    let mant = r
        .per_bit_class
        .get("mantissa")
        .map(|c| c.total())
        .unwrap_or(0);
    assert!(mant as f64 > 0.4 * r.counts.total() as f64);
}

#[test]
fn exp_model_hits_only_exponent_bits() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(1);
    let ins = inputs();
    let judge = ExactJudge;
    let campaign = Campaign::new(&model, &ins, &judge, cfg(FaultModel::ExponentBit), &pool);
    let r = campaign.run(&Unprotected, &pool);
    assert_eq!(r.per_bit_class.len(), 1);
    assert!(r.per_bit_class.contains_key("exponent"));
}

#[test]
fn following_tokens_filter_never_hits_step0() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let mut c = cfg(FaultModel::SingleBit);
    c.step_filter = StepFilter::FollowingTokensOnly;
    let campaign = Campaign::new(&model, &ins, &judge, c, &pool);
    let r = campaign.run(&Unprotected, &pool);
    assert_eq!(r.first_token_faults.total(), 0);
}

#[test]
fn different_seeds_give_different_fault_sets() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let mut a_cfg = cfg(FaultModel::ExponentBit);
    a_cfg.seed = 1;
    let mut b_cfg = cfg(FaultModel::ExponentBit);
    b_cfg.seed = 2;
    let a = Campaign::new(&model, &ins, &judge, a_cfg, &pool).run(&Unprotected, &pool);
    let b = Campaign::new(&model, &ins, &judge, b_cfg, &pool).run(&Unprotected, &pool);
    // Totals equal, per-layer distribution almost surely differs.
    assert_eq!(a.counts.total(), b.counts.total());
    assert_ne!(a.per_layer, b.per_layer);
}

#[test]
fn custom_judge_is_respected() {
    // A judge that calls everything an SDC yields a 100% SDC rate.
    struct Paranoid;
    impl OutcomeJudge for Paranoid {
        fn classify(&self, _r: &[u32], _f: &[u32]) -> Outcome {
            Outcome::Sdc
        }
    }
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(1);
    let ins = inputs();
    let campaign = Campaign::new(&model, &ins, &Paranoid, cfg(FaultModel::SingleBit), &pool);
    let r = campaign.run(&Unprotected, &pool);
    assert_eq!(r.sdc_rate(), 1.0);
}

#[test]
fn computation_weighting_is_config_driven() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let mut c = cfg(FaultModel::SingleBit);
    c.trials_per_input = 120;
    c.step_weighting = StepWeighting::ByTime {
        prefill_factor: 4.0,
    };
    let campaign = Campaign::new(&model, &ins, &judge, c, &pool);
    let r = campaign.run(&Unprotected, &pool);
    // 8 steps: prefill weight 4 of 11 => ~36% of faults in step 0.
    let share = r.first_token_faults.total() as f64 / r.counts.total() as f64;
    assert!((share - 4.0 / 11.0).abs() < 0.08, "share {share}");
}
