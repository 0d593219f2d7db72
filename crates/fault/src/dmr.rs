//! Dual modular redundancy (DMR) — the "duplication in place" endpoint the
//! paper's limitations section concedes safety-critical deployments may
//! need (§1: "achieving 0% SDC may require additional techniques such as
//! duplications in place, where the corresponding significant overhead is
//! expected").
//!
//! Execute the inference twice; a transient fault perturbs at most one
//! execution, so any output mismatch detects it, and re-execution
//! recovers. The guaranteed ~2x cost (plus re-execution on detection) is
//! the overhead FT2's 3.42% undercuts by two orders of magnitude.

use crate::campaign::CampaignConfig;
use crate::inject::FaultInjector;
use crate::outcome::OutcomeJudge;
use crate::site::SiteSampler;
use ft2_model::{Model, TapList};
use ft2_numeric::Xoshiro256StarStar;
use ft2_parallel::WorkStealingPool;

/// Aggregate result of a DMR campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DmrReport {
    /// Total fault-injection trials.
    pub trials: u64,
    /// Trials where the faulty execution differed from the duplicate
    /// (fault detected; re-execution engaged).
    pub detected: u64,
    /// Trials where the fault changed the output of the faulty execution
    /// relative to the fault-free reference (i.e. would have been Masked-
    /// semantic or SDC without DMR).
    pub output_corrupting: u64,
    /// SDCs remaining after detection + re-execution. Zero by construction
    /// under the single-transient-fault model.
    pub sdc_after_recovery: u64,
    /// Executions performed per protected inference (2 + detection rate).
    pub executions: u64,
}

impl DmrReport {
    /// Average executions per inference (the overhead factor).
    pub fn overhead_factor(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.executions as f64 / self.trials as f64
        }
    }

    /// Fraction of output-corrupting faults that were detected.
    pub fn detection_coverage(&self) -> f64 {
        if self.output_corrupting == 0 {
            1.0
        } else {
            // Every output-corrupting fault differs from the duplicate by
            // definition; this is a consistency check rather than an
            // estimate.
            // ft2: nan-ok (integer trial counters, no floats in the min)
            self.detected.min(self.output_corrupting) as f64 / self.output_corrupting as f64
        }
    }
}

/// Run a DMR campaign: per trial, one faulty execution plus one duplicate;
/// mismatch triggers a third (recovery) execution whose output is final.
pub fn run_dmr_campaign(
    model: &Model,
    inputs: &[Vec<u32>],
    judge: &dyn OutcomeJudge,
    config: &CampaignConfig,
    pool: &WorkStealingPool,
) -> DmrReport {
    let gen_tokens = config.gen_tokens;
    let references: Vec<Vec<u32>> = pool.map(inputs, 1, |_, prompt| {
        let mut taps = TapList::new();
        model.generate(prompt, gen_tokens, &mut taps).tokens
    });

    let total = inputs.len() * config.trials_per_input;
    let format = model.config().dtype;
    let per_trial: Vec<(bool, bool, u64, bool)> = pool.map(
        &(0..total).collect::<Vec<usize>>(),
        4,
        |_, &task| {
            let input_id = task / config.trials_per_input;
            let trial_id = task % config.trials_per_input;
            let prompt = &inputs[input_id];
            let mut rng = Xoshiro256StarStar::for_stream(
                config.seed ^ 0xD31,
                &[input_id as u64, trial_id as u64],
            );
            let sampler = SiteSampler::new(model.config(), prompt.len(), gen_tokens)
                .with_step_weighting(config.step_weighting);
            let site = sampler.sample(&mut rng, config.fault_model, format);

            // Execution 1: faulty.
            let mut injector = FaultInjector::new(site);
            let mut taps = TapList::new();
            taps.push(&mut injector);
            let faulty = model.generate(prompt, gen_tokens, &mut taps);
            drop(taps);
            // Execution 2: the duplicate (transient faults do not repeat).
            let duplicate = &references[input_id];

            let detected = &faulty.tokens != duplicate;
            let corrupting = !judge
                .classify(&references[input_id], &faulty.tokens)
                .is_masked()
                || detected;
            let mut executions = 2u64;
            let mut final_tokens = faulty.tokens;
            if detected {
                // Execution 3: recovery (clean by the single-fault model).
                executions += 1;
                final_tokens = references[input_id].clone();
            }
            let sdc = !judge
                .classify(&references[input_id], &final_tokens)
                .is_masked();
            (detected, corrupting, executions, sdc)
        },
    );

    let mut report = DmrReport {
        trials: total as u64,
        ..Default::default()
    };
    for (detected, corrupting, executions, sdc) in per_trial {
        report.detected += u64::from(detected);
        report.output_corrupting += u64::from(corrupting);
        report.executions += executions;
        report.sdc_after_recovery += u64::from(sdc);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultModel;
    use crate::outcome::ExactJudge;
    use ft2_model::ModelConfig;

    #[test]
    fn dmr_recovers_every_fault() {
        let model = Model::new(ModelConfig::tiny_opt());
        let inputs = vec![vec![3u32, 5, 8, 13], vec![2, 7, 1, 8, 2]];
        let pool = WorkStealingPool::new(2);
        let cfg = CampaignConfig {
            trials_per_input: 40,
            gen_tokens: 10,
            ..CampaignConfig::quick(FaultModel::ExponentBit)
        };
        let report = run_dmr_campaign(&model, &inputs, &ExactJudge, &cfg, &pool);
        assert_eq!(report.trials, 80);
        assert_eq!(report.sdc_after_recovery, 0, "DMR must recover everything");
        assert!(report.overhead_factor() >= 2.0);
        assert!(report.overhead_factor() <= 3.0);
        assert_eq!(report.detection_coverage(), 1.0);
    }

    #[test]
    fn overhead_scales_with_detection_rate() {
        let model = Model::new(ModelConfig::tiny_llama());
        let inputs = vec![vec![9u32, 4, 6, 2, 7]];
        let pool = WorkStealingPool::new(1);
        let cfg = CampaignConfig {
            trials_per_input: 30,
            gen_tokens: 8,
            ..CampaignConfig::quick(FaultModel::SingleBit)
        };
        let report = run_dmr_campaign(&model, &inputs, &ExactJudge, &cfg, &pool);
        let expected = 2.0 + report.detected as f64 / report.trials as f64;
        assert!((report.overhead_factor() - expected).abs() < 1e-9);
    }
}
