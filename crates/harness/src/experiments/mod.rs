//! Experiment drivers, one module per table/figure of the paper.

pub mod ablations;
pub mod fig02;
pub mod persistent;
pub mod recovery;
pub mod replay;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod table1;
pub mod table2;

use crate::report::{Csv, Table};
use crate::settings::{Resilience, Settings};
use ft2_core::profile::{offline_profile, OfflineBounds};
use ft2_core::protect::{Correction, Coverage, NanPolicy, Protector};
use ft2_fault::{Campaign, CampaignResult, CheckpointPolicy, ProtectionFactory};
use ft2_model::{LayerKind, LayerTap, Model, ModelSpec};
use ft2_parallel::WorkStealingPool;
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::{DatasetId, TaskSpec};
use std::sync::Arc;

/// Shared context: sizing, the worker pool, and the CSV sink.
pub struct ExperimentCtx {
    /// Experiment sizing.
    pub settings: Settings,
    /// Campaign checkpoint/resume behaviour.
    pub resilience: Resilience,
    /// Work-stealing pool shared by all campaigns.
    pub pool: WorkStealingPool,
    /// CSV artifact writer.
    pub csv: Csv,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl ExperimentCtx {
    /// Context with env-derived settings and a default-size pool.
    pub fn new() -> ExperimentCtx {
        ExperimentCtx {
            settings: Settings::from_env(),
            resilience: Resilience::from_env(),
            pool: WorkStealingPool::with_default_threads(),
            csv: Csv::default_dir(),
        }
    }

    /// Print a table and write its CSV artifact.
    pub fn emit(&self, name: &str, table: &Table) {
        table.print();
        match self.csv.write(name, table) {
            Ok(path) => println!("   -> {}", path.display()),
            Err(e) => eprintln!("   (csv write failed: {e})"),
        }
        println!();
    }
}

/// Everything needed to run campaigns for one (model, dataset) pair.
pub struct PairContext {
    /// The instantiated model.
    pub model: Model,
    /// Evaluation prompts.
    pub prompts: Vec<Vec<u32>>,
    /// Task spec (generation length, answer span).
    pub task: TaskSpec,
    /// Offline-profiled bounds (for the baselines), from a disjoint
    /// profiling split of the same dataset.
    pub offline: Arc<OfflineBounds>,
}

/// Build the model, prompts, task spec and offline bounds for a pair.
pub fn prepare_pair(
    ctx: &ExperimentCtx,
    spec: &ModelSpec,
    dataset: DatasetId,
) -> PairContext {
    let model = spec.build();
    let s = &ctx.settings;
    let prompts = generate_prompts(dataset, s.inputs, s.seed ^ 0xEA71);
    let task = s.task_spec(dataset);
    // Profiling split: same dataset, different seed (a "training split").
    let profile_prompts = generate_prompts(dataset, s.profile_inputs, s.seed ^ 0x7A0F11E);
    let offline = Arc::new(offline_profile(
        &model,
        &profile_prompts,
        task.gen_tokens,
        &ctx.pool,
    ));
    PairContext {
        model,
        prompts,
        task,
        offline,
    }
}

/// Run one campaign (one fault model, one protection) on a prepared pair.
///
/// When checkpointing is enabled (see [`Resilience`]), the campaign runs
/// through the resumable path: its aggregate is persisted periodically
/// under a fingerprint-derived filename and, with `--resume`, a compatible
/// checkpoint left by an interrupted earlier invocation is continued —
/// bit-identically to an uninterrupted run.
pub fn run_campaign(
    ctx: &ExperimentCtx,
    pair: &PairContext,
    dataset: DatasetId,
    fault_model: ft2_fault::FaultModel,
    protection: &dyn ProtectionFactory,
) -> CampaignResult {
    let judge = pair.task.judge();
    let cfg = ctx.settings.campaign(dataset, fault_model);
    let campaign = Campaign::new(&pair.model, &pair.prompts, &judge, cfg, &ctx.pool);
    run_checkpointed(ctx, &campaign, dataset, protection)
}

/// Checkpoint-aware execution of an already-built campaign. Drivers that
/// need a non-standard [`ft2_fault::CampaignConfig`] (layer filters, step
/// filters, scale sweeps) build their own `Campaign` and route it through
/// here so `--resume` covers them too; the checkpoint filename hashes the
/// full config fingerprint, so every variant gets its own file.
pub fn run_checkpointed(
    ctx: &ExperimentCtx,
    campaign: &Campaign<'_>,
    dataset: DatasetId,
    protection: &dyn ProtectionFactory,
) -> CampaignResult {
    if !ctx.resilience.enabled() {
        return report_dues(campaign, protection, campaign.run(protection, &ctx.pool));
    }

    let policy = CheckpointPolicy {
        path: ctx
            .resilience
            .checkpoint_dir
            .join(checkpoint_name(campaign, dataset, protection)),
        every: ctx.resilience.cadence(),
        resume: ctx.resilience.resume,
        abort_after: None,
    };
    let result = match campaign.run_resumable(protection, &ctx.pool, &policy) {
        Ok(run) => {
            if run.resumed_from > 0 {
                eprintln!(
                    "   (resumed {} from {}/{} completed trials)",
                    protection.scheme_name(),
                    run.resumed_from,
                    run.total_tasks
                );
            }
            run.result
        }
        Err(e) => {
            eprintln!("   (checkpoint unusable: {e}; rerunning from scratch)");
            campaign.run(protection, &ctx.pool)
        }
    };
    report_dues(campaign, protection, result)
}

/// DUE trials (crashes, watchdog hangs) dilute the SDC denominator without
/// showing up in the figure tables, so surface them on stderr; crashed
/// trials come with their `ft2-repro replay` pointer.
fn report_dues(
    campaign: &Campaign<'_>,
    protection: &dyn ProtectionFactory,
    result: CampaignResult,
) -> CampaignResult {
    if result.counts.due() > 0 {
        eprintln!(
            "   ({}: {} crashed, {} hung of {} trials)",
            protection.scheme_name(),
            result.counts.crash,
            result.counts.hang,
            result.counts.total()
        );
        let seed = campaign.config().seed;
        for f in result.crashes.iter().take(5) {
            eprintln!(
                "     crash at {}: {}  (replay {:#x}/{}/{})",
                f.site, f.message, seed, f.input, f.trial
            );
        }
    }
    result
}

/// Checkpoint filename: a readable prefix plus a hash of the full campaign
/// fingerprint, so different configurations never collide (and a stale
/// checkpoint for a changed config is simply ignored, not rejected).
fn checkpoint_name(
    campaign: &Campaign<'_>,
    dataset: DatasetId,
    protection: &dyn ProtectionFactory,
) -> String {
    let fingerprint = campaign.fingerprint(protection.scheme_name());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in fingerprint.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    let scheme: String = protection
        .scheme_name()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
        .collect();
    format!("{}-{}-{:016x}.json", dataset.name(), scheme, h)
}

/// A protection factory with an arbitrary linear-layer coverage set and
/// offline bounds — used by the Fig. 6 protect-all-but-one sweep.
pub struct OfflineCoverageFactory {
    /// Covered linear layer kinds.
    pub kinds: Vec<LayerKind>,
    /// Offline bounds to clamp against.
    pub offline: Arc<OfflineBounds>,
    /// Display name.
    pub name: String,
}

impl ProtectionFactory for OfflineCoverageFactory {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        vec![Box::new(Protector::offline(
            Coverage::linears(self.kinds.clone()),
            self.offline.linear.clone(),
            Correction::ClampToBound,
            NanPolicy::ToZero,
        ))]
    }

    fn scheme_name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ft2_core::{Scheme, SchemeFactory};
    use ft2_fault::FaultModel;
    use ft2_model::ZooModel;

    pub(crate) fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            settings: Settings {
                inputs: 3,
                trials: 4,
                gen_qa: 10,
                gen_math: 12,
                profile_inputs: 3,
                seed: 7,
                trial_deadline_ms: None,
                trial_token_budget: None,
                recovery_retries: 0,
                storm_threshold: None,
                scrub_tiles_per_step: 0,
                recovery_repair: false,
                shards: 1,
                shard_heartbeat_ms: 50,
            },
            resilience: Resilience {
                checkpoint_every: None,
                checkpoint_dir: std::env::temp_dir().join("ft2_checkpoints_test"),
                resume: false,
            },
            pool: WorkStealingPool::new(2),
            csv: Csv::new(std::env::temp_dir().join("ft2_results_test")),
        }
    }

    #[test]
    fn prepare_and_run_smoke() {
        let ctx = tiny_ctx();
        let spec = ZooModel::Qwen2_1_5B.spec();
        let pair = prepare_pair(&ctx, &spec, DatasetId::Squad);
        assert_eq!(pair.prompts.len(), 3);
        assert!(!pair.offline.linear.is_empty());

        let ft2 = SchemeFactory::new(Scheme::Ft2, pair.model.config(), None);
        let r = run_campaign(&ctx, &pair, DatasetId::Squad, FaultModel::SingleBit, &ft2);
        assert_eq!(r.counts.total(), 12);
    }

    #[test]
    fn custom_coverage_factory_names_and_builds() {
        let ctx = tiny_ctx();
        let spec = ZooModel::Qwen2_1_5B.spec();
        let pair = prepare_pair(&ctx, &spec, DatasetId::Squad);
        let f = OfflineCoverageFactory {
            kinds: vec![LayerKind::VProj],
            offline: pair.offline.clone(),
            name: "all-but-everything".into(),
        };
        assert_eq!(f.scheme_name(), "all-but-everything");
        assert_eq!(f.make().len(), 1);
    }
}
