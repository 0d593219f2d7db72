//! Experiment drivers: one [`sweep::Sweep`] spec per campaign figure
//! ([`campaigns`]), run by the one runner in [`sweep`]; a small body per
//! figure that is not a campaign ([`figures`]); and single-trial
//! [`replay`].

pub mod campaigns;
pub mod figures;
pub mod replay;
pub mod sweep;

use crate::report::{Csv, Table};
use crate::settings::{Resilience, Settings};
use ft2_parallel::WorkStealingPool;

/// An experiment: runs, prints its tables and writes their CSVs. A
/// campaign figure's is its sweep spec's [`sweep::Sweep::run`].
pub type Experiment = fn(&ExperimentCtx);

/// Every experiment by `ft2-repro` subcommand name, in the order `all`
/// runs them.
pub const ALL: [(&str, Experiment); 19] = [
    ("table1", figures::table1),
    ("table2", figures::table2),
    ("fig2", |ctx| {
        campaigns::fig2(&ctx.settings).run(ctx);
    }),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig6", |ctx| {
        campaigns::fig6(&ctx.settings).run(ctx);
    }),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("fig9", |ctx| {
        campaigns::fig9(&ctx.settings).run(ctx);
    }),
    ("fig10", figures::fig10),
    ("fig11", |ctx| {
        campaigns::fig11(&ctx.settings).run(ctx);
    }),
    ("fig12", figures::fig12),
    ("fig13", |ctx| {
        let (_, results) = campaigns::fig13(&ctx.settings).run(ctx);
        campaigns::fig13_aggregates(ctx, &results);
    }),
    ("fig14", figures::fig14),
    ("fig15", |ctx| {
        campaigns::fig15(&ctx.settings).run(ctx);
    }),
    ("fig16", |ctx| {
        campaigns::fig16(&ctx.settings).run(ctx);
    }),
    ("ablations", figures::ablations),
    ("recovery", |ctx| {
        campaigns::recovery(&ctx.settings).run(ctx);
    }),
    ("persistent", |ctx| {
        campaigns::persistent(&ctx.settings).run(ctx);
    }),
];

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

#[cfg(test)]
pub(crate) mod tests {
    use super::sweep::{checkpoint_name, run_checkpointed, OfflineCoverageFactory, Pair, Protect};
    use super::*;
    use ft2_core::protect::Correction;
    use ft2_core::{Scheme, SchemeFactory};
    use ft2_fault::{CheckpointPolicy, FaultModel, ProtectionFactory};
    use ft2_model::LayerKind;
    use ft2_model::ZooModel;
    use ft2_tasks::DatasetId;

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

    fn tiny_pair(ctx: &ExperimentCtx, offline: bool) -> Pair {
        Pair::new(
            &ctx.settings,
            &ctx.pool,
            &ZooModel::Qwen2_1_5B.spec(),
            DatasetId::Squad,
            offline,
        )
    }

    #[test]
    fn prepare_and_run_smoke() {
        let ctx = tiny_ctx();
        let pair = tiny_pair(&ctx, true);
        assert_eq!(pair.prompts.len(), 3);
        assert!(!pair.offline.as_ref().unwrap().linear.is_empty());
        assert!(
            tiny_pair(&ctx, false).offline.is_none(),
            "profiled without a need"
        );

        let ft2 = Protect::Scheme(Scheme::Ft2).factory(&pair, &ctx.settings);
        let cfg = ctx
            .settings
            .campaign(DatasetId::Squad, FaultModel::SingleBit);
        let campaign = pair.campaign(&ctx.pool, cfg);
        let r = run_checkpointed(&ctx, &campaign, DatasetId::Squad, ft2.as_ref());
        assert_eq!(r.counts.total(), 12);
    }

    #[test]
    fn unusable_checkpoint_is_restarted_over_not_left_behind() {
        let mut ctx = tiny_ctx();
        ctx.resilience = Resilience {
            checkpoint_every: Some(4),
            checkpoint_dir: std::env::temp_dir().join("ft2_checkpoints_stale_test"),
            resume: true,
        };
        let pair = tiny_pair(&ctx, false);
        let ft2 = SchemeFactory::new(Scheme::Ft2, pair.model.config(), None);
        let cfg = ctx
            .settings
            .campaign(DatasetId::Squad, FaultModel::SingleBit);
        let campaign = pair.campaign(&ctx.pool, cfg);

        // A checkpoint an older binary left: a version-5 JSON document.
        let dir = &ctx.resilience.checkpoint_dir;
        let path = dir.join(checkpoint_name(&campaign, DatasetId::Squad, &ft2));
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(&path, "{\n  \"version\": 5,\n  \"completed_tasks\": 4\n}\n").unwrap();

        let result = run_checkpointed(&ctx, &campaign, DatasetId::Squad, &ft2);
        assert_eq!(result, campaign.run(&ft2, &ctx.pool));
        // Rerun through the checkpointing path: the stale file was
        // overwritten and, once the campaign completed, removed.
        assert!(
            !path.exists(),
            "stale checkpoint left at {}",
            path.display()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn custom_coverage_factory_names_and_builds() {
        let ctx = tiny_ctx();
        let pair = tiny_pair(&ctx, true);
        let f = OfflineCoverageFactory {
            kinds: vec![LayerKind::VProj],
            offline: pair.offline.clone().unwrap(),
            correction: Correction::ClampToBound,
            name: "all-but-everything".into(),
        };
        assert_eq!(f.scheme_name(), "all-but-everything");
        assert_eq!(f.make().len(), 1);
    }

    #[test]
    fn interrupted_sweep_resumes_to_the_uninterrupted_rows() {
        // Fig. 9's cells: one pair and config, eight protections, seven of
        // them FT2 at different bound scales. The first scale is tightened
        // to 0.25, so that at this sizing its trials end differently from
        // the other scales' and a cell resumed from another scale's
        // checkpoint shows in the results.
        let mut ctx = tiny_ctx();
        let mut sweep = campaigns::fig9(&ctx.settings);
        sweep.cells[1] = sweep.cells[1].with(&["FT2, scale 0.25"], Protect::Ft2Scale(0.25));
        let (want, want_results) = sweep.run(&ctx);

        // An invocation stopped in every cell after 5 of its 12 trials,
        // leaving each cell's checkpoint where the runner looks for it.
        let dir = std::env::temp_dir().join("ft2_checkpoints_sweep_test");
        std::fs::remove_dir_all(&dir).ok();
        let s = ctx.settings;
        let pair = Pair::new(
            &s,
            &ctx.pool,
            &sweep.cells[0].model,
            sweep.cells[0].dataset,
            false,
        );
        let campaign = pair.campaign(&ctx.pool, sweep.cells[0].config.clone());
        for cell in &sweep.cells {
            let factory = cell.protect.factory(&pair, &s);
            let name = checkpoint_name(&campaign, cell.dataset, factory.as_ref());
            let stop = CheckpointPolicy {
                path: dir.join(name),
                every: 2,
                resume: false,
                abort_after: Some(5),
            };
            let run = campaign
                .run_resumable(factory.as_ref(), &ctx.pool, &stop)
                .unwrap();
            assert!(run.interrupted);
        }
        let left = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(left, sweep.cells.len(), "one checkpoint per cell");

        ctx.resilience = Resilience {
            checkpoint_every: Some(2),
            checkpoint_dir: dir.clone(),
            resume: true,
        };
        let (got, got_results) = sweep.run(&ctx);
        assert_eq!(got.rows(), want.rows());
        assert_eq!(got_results, want_results);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "completed checkpoints removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
