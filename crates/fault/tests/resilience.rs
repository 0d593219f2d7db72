//! Crash-safety integration tests: panic isolation, watchdogs, and
//! checkpoint/resume, all through the public `ft2-fault` API.

use ft2_fault::{
    Campaign, CampaignCheckpoint, CampaignConfig, CheckpointPolicy, ExactJudge, FaultModel,
    Outcome, ProtectionFactory, Unprotected,
};
use ft2_model::{LayerTap, Model, ModelConfig, TapCtx};
use ft2_parallel::WorkStealingPool;
use ft2_tensor::Matrix;
use std::path::PathBuf;

fn inputs() -> Vec<Vec<u32>> {
    vec![
        vec![1, 22, 33, 44, 5],
        vec![80, 70, 60, 50],
        vec![9, 8, 7, 6, 5, 4],
    ]
}

fn cfg(fm: FaultModel) -> CampaignConfig {
    CampaignConfig {
        trials_per_input: 12,
        gen_tokens: 6,
        ..CampaignConfig::quick(fm)
    }
}

fn temp_checkpoint(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ft2-resilience-{name}.json"));
    std::fs::remove_file(&path).ok();
    path
}

/// A protection tap with a bug: it panics at step 1 on block 0 whenever the
/// activations there are still finite — the way a real protection-scheme
/// defect would take down a worker thread mid-generation.
struct FlakyTap;

impl LayerTap for FlakyTap {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        if ctx.step == 1 && ctx.point.block == 0 && data.as_slice()[0].is_finite() {
            panic!("flaky protection bug at step {}", ctx.step);
        }
    }
}

struct Flaky;

impl ProtectionFactory for Flaky {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        vec![Box::new(FlakyTap)]
    }

    fn scheme_name(&self) -> &str {
        "Flaky"
    }
}

#[test]
fn crashing_scheme_completes_campaign_and_pool_survives() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(4);
    let ins = inputs();
    let judge = ExactJudge;
    let campaign = Campaign::new(&model, &ins, &judge, cfg(FaultModel::SingleBit), &pool);

    let r = campaign.run(&Flaky, &pool);
    assert_eq!(r.counts.total(), 36, "every trial must be accounted for");
    assert!(r.counts.crash > 0, "the flaky tap must crash some trials");
    assert_eq!(r.counts.crash as usize, r.crashes.len());
    for failure in &r.crashes {
        assert!(failure.message.contains("flaky protection bug"));
        assert!(failure.input < ins.len());
        assert!(failure.trial < 12);
    }

    // Same pool, clean scheme: zero crashes, full accounting.
    let clean = campaign.run(&Unprotected, &pool);
    assert_eq!(clean.counts.total(), 36);
    assert_eq!(clean.counts.crash, 0);
}

#[test]
fn crash_outcomes_are_deterministic_across_thread_counts() {
    let model = Model::new(ModelConfig::tiny_opt());
    let ins = inputs();
    let judge = ExactJudge;

    let pool1 = WorkStealingPool::new(1);
    let c1 = Campaign::new(&model, &ins, &judge, cfg(FaultModel::ExponentBit), &pool1);
    let r1 = c1.run(&Flaky, &pool1);

    let pool4 = WorkStealingPool::new(4);
    let c4 = Campaign::new(&model, &ins, &judge, cfg(FaultModel::ExponentBit), &pool4);
    let r4 = c4.run(&Flaky, &pool4);

    assert_eq!(r1.counts, r4.counts);
    assert_eq!(r1.crashes, r4.crashes, "crash list is in task order");
}

#[test]
fn double_interruption_resumes_bit_identically() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(3);
    let ins = inputs();
    let judge = ExactJudge;
    let campaign = Campaign::new(&model, &ins, &judge, cfg(FaultModel::ExponentBit), &pool);
    let uninterrupted = campaign.run(&Unprotected, &pool);

    let path = temp_checkpoint("double-interrupt");
    // Kill after 5 tasks, then after 11 more, then run to completion: three
    // invocations, one logical campaign.
    for (abort, expect_done) in [(Some(5), 5), (Some(11), 16), (None, 36)] {
        let run = campaign
            .run_resumable(
                &Unprotected,
                &pool,
                &CheckpointPolicy {
                    path: path.clone(),
                    every: 3,
                    resume: true,
                    abort_after: abort,
                },
            )
            .unwrap();
        assert_eq!(run.completed_tasks, expect_done);
        assert_eq!(run.interrupted, abort.is_some());
        if run.interrupted {
            // The checkpoint on disk parses and matches the run's state.
            let cp = CampaignCheckpoint::load(&path).unwrap().unwrap();
            assert_eq!(cp.completed_tasks, expect_done);
            assert_eq!(cp.result, run.result);
        } else {
            assert_eq!(run.result, uninterrupted, "resumed != uninterrupted");
            assert!(!path.exists());
        }
    }
}

#[test]
fn crashing_campaign_resumes_bit_identically() {
    // The acceptance combination: crashes AND interruption AND resume.
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(4);
    let ins = inputs();
    let judge = ExactJudge;
    let campaign = Campaign::new(&model, &ins, &judge, cfg(FaultModel::SingleBit), &pool);
    let uninterrupted = campaign.run(&Flaky, &pool);
    assert!(uninterrupted.counts.crash > 0);

    let path = temp_checkpoint("crashing-resume");
    let first = campaign
        .run_resumable(
            &Flaky,
            &pool,
            &CheckpointPolicy {
                path: path.clone(),
                every: 4,
                resume: true,
                abort_after: Some(17),
            },
        )
        .unwrap();
    assert!(first.interrupted);

    let second = campaign
        .run_resumable(&Flaky, &pool, &CheckpointPolicy::resume_at(&path, 4))
        .unwrap();
    assert!(!second.interrupted);
    assert_eq!(second.result, uninterrupted);
    // Crash records (site strings and all) survive the checkpoint's line
    // records, `%XX` escapes included.
    assert_eq!(second.result.crashes, uninterrupted.crashes);
}

#[test]
fn token_budget_hangs_are_reproducible() {
    let model = Model::new(ModelConfig::tiny_opt());
    let ins = inputs();
    let judge = ExactJudge;
    let mut c = cfg(FaultModel::SingleBit);
    c.trial_token_budget = Some(2); // below gen_tokens: every trial hangs

    let pool1 = WorkStealingPool::new(1);
    let r1 = Campaign::new(&model, &ins, &judge, c.clone(), &pool1).run(&Unprotected, &pool1);
    let pool4 = WorkStealingPool::new(4);
    let r4 = Campaign::new(&model, &ins, &judge, c, &pool4).run(&Unprotected, &pool4);

    assert_eq!(r1.counts.hang, 36);
    assert_eq!(r1.counts, r4.counts);
    assert!(r1.crashes.is_empty(), "hangs must not be reported as crashes");
}

#[test]
fn hang_and_crash_are_distinct_outcomes() {
    let model = Model::new(ModelConfig::tiny_opt());
    let pool = WorkStealingPool::new(2);
    let ins = inputs();
    let judge = ExactJudge;
    let mut c = cfg(FaultModel::SingleBit);
    c.trial_token_budget = Some(1);
    let campaign = Campaign::new(&model, &ins, &judge, c, &pool);
    // Flaky panics at step 1; the watchdog aborts at step 1 too — but the
    // watchdog tap runs first, so every trial is a Hang, not a Crash.
    let r = campaign.run(&Flaky, &pool);
    assert_eq!(r.counts.hang, 36);
    assert_eq!(r.counts.crash, 0);
    let (rec, _) = campaign.trial_record_traced(&Flaky, 0, 0);
    assert_eq!(rec.outcome, Outcome::Hang);
}
