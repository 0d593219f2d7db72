//! The one campaign runner.
//!
//! A campaign figure is a [`Sweep`]: a CSV name, a title, its columns and a
//! list of [`Cell`]s. A cell is row labels, a (model, dataset) pair, a
//! complete [`CampaignConfig`] and a [`Protect`]ion. [`Sweep::run`] owns
//! everything between that spec and the CSV:
//!
//! * adjacent cells on one (model, dataset) share one [`Pair`], with
//!   offline bounds profiled and golden weight checksums built only when
//!   one of those cells needs them;
//! * adjacent cells with one config share one [`Campaign`] (its reference
//!   generations are the expensive part): Fig. 13 builds 48, one per
//!   (pair, fault model), for its 288 cells;
//! * every cell runs through [`run_checkpointed`], so `--resume` covers
//!   every figure, and a crashed trial is reported with the `ft2-repro
//!   replay` command that re-runs it;
//! * the table has one row per cell or, for Fig. 13/15, one row per label
//!   set and one SDC column per scheme; it is printed and written.

use super::replay::ReplaySpec;
use super::ExperimentCtx;
use crate::report::{format_pct, Table};
use crate::settings::Settings;
use ft2_core::profile::{offline_profile, OfflineBounds};
use ft2_core::protect::{Correction, Coverage, NanPolicy, Protector};
use ft2_core::{IntegrityConfig, Scheme, SchemeFactory, WeightChecksums};
use ft2_fault::{
    Campaign, CampaignConfig, CampaignResult, CheckpointPolicy, FaultModel, ProtectionFactory,
};
use ft2_model::{LayerKind, LayerTap, Model, ModelSpec};
use ft2_numeric::crc64;
use ft2_parallel::WorkStealingPool;
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::{AnswerJudge, DatasetId};
use std::sync::Arc;

/// One (model, dataset) pair: the model, its evaluation prompts and judge,
/// and what the pair's cells need beyond them.
pub struct Pair {
    /// The instantiated model.
    pub model: Model,
    /// Evaluation prompts.
    pub prompts: Vec<Vec<u32>>,
    /// The dataset's answer judge.
    pub judge: AnswerJudge,
    /// Offline-profiled bounds (for the baselines), from a disjoint
    /// profiling split of the same dataset.
    pub offline: Option<Arc<OfflineBounds>>,
    /// The golden-copy integrity layer of [`Protect::Ft2Repair`]; disabled
    /// unless a cell asks for it.
    pub integrity: IntegrityConfig,
}

impl Pair {
    /// Build the model and the evaluation prompts of `dataset`, and profile
    /// offline bounds when `offline` is set. Prompts and the profiling split
    /// are seeded by `s.seed`.
    pub fn new(
        s: &Settings,
        pool: &WorkStealingPool,
        spec: &ModelSpec,
        dataset: DatasetId,
        offline: bool,
    ) -> Pair {
        let model = spec.build();
        let task = s.task_spec(dataset);
        // Profiling split: same dataset, different seed (a "training split").
        let offline = offline.then(|| {
            let split = generate_prompts(dataset, s.profile_inputs, s.seed ^ 0x7A0F11E);
            Arc::new(offline_profile(&model, &split, task.gen_tokens, pool))
        });
        Pair {
            prompts: generate_prompts(dataset, s.inputs, s.seed ^ 0xEA71),
            judge: task.judge(),
            offline,
            integrity: IntegrityConfig::disabled(),
            model,
        }
    }

    /// The campaign of `config` on this pair.
    pub fn campaign(&self, pool: &WorkStealingPool, config: CampaignConfig) -> Campaign<'_> {
        Campaign::new(&self.model, &self.prompts, &self.judge, config, pool)
    }
}

/// The integrity layer against `model`'s golden checksums (built once, at
/// load time, and shared read-only by every trial): the KV guard, and
/// weight scrubbing at `FT2_SCRUB_TILES_PER_STEP` tiles per step or, by
/// default, one full sweep of the tiles per generation.
fn golden_integrity(s: &Settings, model: &Model, gen_tokens: usize) -> IntegrityConfig {
    let checksums = Arc::new(WeightChecksums::build(model.config(), model.weights()));
    IntegrityConfig {
        scrub_tiles_per_step: match s.scrub_tiles_per_step {
            0 => checksums.num_tiles().div_ceil(gen_tokens.max(1)),
            n => n,
        },
        kv_guard: true,
        checksums: Some(checksums),
    }
}

/// How a cell's campaign is protected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Protect {
    /// A scheme of the evaluation.
    Scheme(Scheme),
    /// FT2 at a bound scale factor (Fig. 9).
    Ft2Scale(f32),
    /// Every block linear but one kind, clamped to the pair's offline
    /// bounds (Fig. 6's protect-all-but-one probe).
    AllBut(LayerKind),
    /// FT2 plus the pair's golden-copy integrity layer (the persistent
    /// sweep's repair rows).
    Ft2Repair,
}

impl Protect {
    fn needs_offline(self) -> bool {
        match self {
            Protect::Scheme(scheme) => scheme.needs_offline_bounds(),
            Protect::AllBut(_) => true,
            Protect::Ft2Scale(_) | Protect::Ft2Repair => false,
        }
    }

    /// The protection factory on `pair`. `FT2_STORM_THRESHOLD` tunes every
    /// scheme's protectors.
    pub(crate) fn factory(self, pair: &Pair, s: &Settings) -> Box<dyn ProtectionFactory> {
        let config = pair.model.config();
        let factory = match self {
            Protect::Scheme(scheme) => SchemeFactory::new(scheme, config, pair.offline.clone()),
            Protect::Ft2Scale(scale) => SchemeFactory::ft2_with_scale(config, scale),
            Protect::Ft2Repair => {
                SchemeFactory::new(Scheme::Ft2, config, None).with_integrity(pair.integrity.clone())
            }
            Protect::AllBut(excluded) => {
                let kinds = config
                    .block_layers()
                    .iter()
                    .copied()
                    .filter(|&k| k != excluded);
                return Box::new(OfflineCoverageFactory {
                    kinds: kinds.collect(),
                    offline: pair.offline.clone().expect("the pair was profiled"),
                    correction: Correction::ClampToBound,
                    name: format!("all but {}", excluded.name()),
                });
            }
        };
        Box::new(factory.with_storm_threshold(s.storm_threshold))
    }
}

/// One campaign of a sweep.
#[derive(Clone)]
pub struct Cell {
    /// Row labels, in the order of the sweep's label columns.
    pub labels: Vec<String>,
    /// The model.
    pub model: ModelSpec,
    /// The dataset driving prompts and judging.
    pub dataset: DatasetId,
    /// The complete campaign configuration.
    pub config: CampaignConfig,
    /// The protection under test.
    pub protect: Protect,
}

impl Cell {
    /// An unlabelled, unprotected cell on the settings' campaign of
    /// `dataset` under `fault`: the base a sweep's cells are made from.
    pub fn new(s: &Settings, model: &ModelSpec, dataset: DatasetId, fault: FaultModel) -> Cell {
        Cell {
            labels: Vec::new(),
            model: model.clone(),
            dataset,
            config: s.campaign(dataset, fault),
            protect: Protect::Scheme(Scheme::NoProtection),
        }
    }

    /// This cell labelled `labels` and protected by `protect`.
    pub fn with(&self, labels: &[&str], protect: Protect) -> Cell {
        let labels = labels.iter().map(|l| l.to_string()).collect();
        Cell {
            labels,
            protect,
            ..self.clone()
        }
    }

    /// This cell with its campaign configuration edited.
    pub fn edit(mut self, edit: impl FnOnce(&mut CampaignConfig)) -> Cell {
        edit(&mut self.config);
        self
    }

    fn pair_key(&self) -> String {
        format!("{:?}|{:?}", self.model.config, self.dataset)
    }
}

/// What a metric column reads: a cell, the pair it ran on, and its result.
pub struct Ran<'a> {
    /// The cell.
    pub cell: &'a Cell,
    /// Its pair.
    pub pair: &'a Pair,
    /// Its campaign's aggregate.
    pub result: &'a CampaignResult,
}

/// A column of a sweep's table.
pub enum Col {
    /// The cell's next label.
    Label(&'static str),
    /// A value read off the cell's run.
    Metric(&'static str, fn(&Ran) -> String),
    /// The last column: one SDC column per scheme, headed by its name, and
    /// one row per run of adjacent cells with the same labels (Fig. 13/15).
    SdcPerScheme,
}

/// The SDC rate column.
pub const SDC: Col = Col::Metric("sdc_rate", |r| format_pct(r.result.sdc_rate()));

/// The SDC rate's 95 % interval half-width.
pub const CI95: Col = Col::Metric("ci95", |r| format!("±{}", format_pct(r.result.sdc_ci95())));

/// A campaign figure: its cells and its table.
pub struct Sweep {
    /// CSV artifact name (under `results/`).
    pub csv: &'static str,
    /// Table title.
    pub title: &'static str,
    /// The table's columns.
    pub cols: Vec<Col>,
    /// The campaigns, run in order. Adjacent cells on one pair share it,
    /// and adjacent cells with one config share its campaign.
    pub cells: Vec<Cell>,
}

impl Sweep {
    /// Run every cell, print the table and write its CSV. Returns the table
    /// and the results in cell order.
    pub fn run(&self, ctx: &ExperimentCtx) -> (Table, Vec<CampaignResult>) {
        let s = &ctx.settings;
        let (mut rows, mut schemes, mut results) = (Vec::new(), Vec::new(), Vec::new());
        for group in self.cells.chunk_by(|a, b| a.pair_key() == b.pair_key()) {
            let lead = &group[0];
            let needs = |want: fn(Protect) -> bool| group.iter().any(|c| want(c.protect));
            let offline = needs(Protect::needs_offline);
            let mut pair = Pair::new(s, &ctx.pool, &lead.model, lead.dataset, offline);
            if needs(|p| p == Protect::Ft2Repair) {
                pair.integrity = golden_integrity(s, &pair.model, lead.config.gen_tokens);
            }
            let config = |c: &Cell| format!("{:?}", c.config);
            for same in group.chunk_by(|a, b| config(a) == config(b)) {
                let campaign = pair.campaign(&ctx.pool, same[0].config.clone());
                for cell in same {
                    let factory = cell.protect.factory(&pair, s);
                    let result = run_checkpointed(ctx, &campaign, cell.dataset, factory.as_ref());
                    report_dues(cell, s, factory.scheme_name(), &result);
                    rows.push(self.row(&Ran {
                        cell,
                        pair: &pair,
                        result: &result,
                    }));
                    schemes.push(factory.scheme_name().to_string());
                    results.push(result);
                }
            }
            eprintln!(
                "  {}: finished {} / {}",
                self.csv,
                lead.model.name(),
                lead.dataset.name()
            );
        }
        let mut header: Vec<&str> = self.cols.iter().filter_map(Col::name).collect();
        let mut width = 1;
        if let Some(Col::SdcPerScheme) = self.cols.last() {
            width = self
                .cells
                .iter()
                .take_while(|c| c.labels == self.cells[0].labels)
                .count();
            header.extend(schemes[..width].iter().map(String::as_str));
        }
        let mut table = Table::new(self.title, &header);
        for row in rows.chunks(width) {
            let mut cells = row[0].clone();
            cells.extend(
                row[1..]
                    .iter()
                    .map(|r| r.last().expect("an SDC column").clone()),
            );
            table.row(cells);
        }
        ctx.emit(self.csv, &table);
        (table, results)
    }

    /// One cell's row, or its labels and SDC rate for a per-scheme table.
    fn row(&self, ran: &Ran) -> Vec<String> {
        let mut labels = ran.cell.labels.iter().cloned();
        let cell = |col: &Col| match col {
            Col::Label(_) => labels.next().expect("a label per label column"),
            Col::Metric(_, read) => read(ran),
            Col::SdcPerScheme => format_pct(ran.result.sdc_rate()),
        };
        self.cols.iter().map(cell).collect()
    }
}

impl Col {
    /// The header of a label or metric column.
    fn name(&self) -> Option<&'static str> {
        match self {
            Col::Label(name) | Col::Metric(name, _) => Some(name),
            Col::SdcPerScheme => None,
        }
    }
}

/// Checkpoint-aware execution of one campaign under one protection.
///
/// When checkpointing is enabled (see [`crate::Resilience`]), the campaign
/// runs through the resumable path: its aggregate is persisted periodically
/// under a fingerprint-derived filename and, with `--resume`, a compatible
/// checkpoint left by an interrupted earlier invocation is continued —
/// bit-identically to an uninterrupted run.
pub fn run_checkpointed(
    ctx: &ExperimentCtx,
    campaign: &Campaign<'_>,
    dataset: DatasetId,
    protection: &dyn ProtectionFactory,
) -> CampaignResult {
    let r = &ctx.resilience;
    if !r.enabled() {
        return campaign.run(protection, &ctx.pool);
    }
    let mut policy = CheckpointPolicy {
        path: r
            .checkpoint_dir
            .join(checkpoint_name(campaign, dataset, protection)),
        every: r.cadence(),
        resume: r.resume,
        abort_after: None,
    };
    // A checkpoint that cannot be resumed (unreadable, another format,
    // another campaign) is restarted over, so the next `--resume` finds a
    // good one; only a failing write drops checkpointing for this campaign.
    let mut run = campaign.run_resumable(protection, &ctx.pool, &policy);
    if let (Err(e), true) = (&run, policy.resume) {
        eprintln!("   (checkpoint unusable: {e}; rerunning from scratch)");
        policy.resume = false;
        run = campaign.run_resumable(protection, &ctx.pool, &policy);
    }
    match run {
        Ok(run) => {
            if run.resumed_from > 0 {
                let (name, total) = (protection.scheme_name(), run.total_tasks);
                eprintln!(
                    "   (resumed {name} from {}/{total} completed trials)",
                    run.resumed_from
                );
            }
            run.result
        }
        Err(e) => {
            eprintln!("   ({e}; running without checkpoints)");
            campaign.run(protection, &ctx.pool)
        }
    }
}

/// DUE trials (crashes, watchdog hangs) dilute the SDC denominator without
/// showing up in the figure tables, so surface them on stderr; a crashed
/// trial comes with the command that replays it.
fn report_dues(cell: &Cell, s: &Settings, scheme: &str, result: &CampaignResult) {
    if result.counts.due() == 0 {
        return;
    }
    eprintln!(
        "   ({scheme}: {} crashed, {} hung of {} trials)",
        result.counts.crash,
        result.counts.hang,
        result.counts.total()
    );
    for f in result.crashes.iter().take(5) {
        eprintln!(
            "     crash at {}: {}  ({})",
            f.site,
            f.message,
            replay_pointer(cell, s, f.input, f.trial)
        );
    }
}

/// `replay: <command>` for trial `(input, trial)` of `cell` under sizing
/// `s`, prefixed by `FT2_TRIALS=` when the cell runs another trial count;
/// or `not replayable: <what>` when the replay options cannot express the
/// cell. (A cell's input count is its pair's, always `s.inputs`.)
pub fn replay_pointer(cell: &Cell, s: &Settings, input: usize, trial: usize) -> String {
    let sized = Settings {
        trials: cell.config.trials_per_input,
        ..*s
    };
    match ReplaySpec::for_cell(cell, &sized, input, trial) {
        Ok(spec) if sized.trials != s.trials => {
            format!("replay: FT2_TRIALS={} {}", sized.trials, spec.command())
        }
        Ok(spec) => format!("replay: {}", spec.command()),
        Err(what) => format!("not replayable: {what}"),
    }
}

/// Checkpoint filename: a readable prefix plus a hash of the full campaign
/// fingerprint, so different configurations never collide (and a stale
/// checkpoint for a changed config is simply ignored, not rejected).
pub(crate) fn checkpoint_name(
    campaign: &Campaign<'_>,
    dataset: DatasetId,
    protection: &dyn ProtectionFactory,
) -> String {
    let fingerprint = campaign.fingerprint(protection.scheme_name());
    let scheme: String = protection
        .scheme_name()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    format!(
        "{}-{}-{:016x}",
        dataset.name(),
        scheme,
        crc64(fingerprint.as_bytes())
    )
}

/// A protection factory with an arbitrary linear-layer coverage set,
/// offline bounds and correction policy: Fig. 3's bound-transfer probe,
/// Fig. 6's protect-all-but-one sweep and the Take-away 8 ablation.
pub struct OfflineCoverageFactory {
    /// Covered linear layer kinds.
    pub kinds: Vec<LayerKind>,
    /// Offline bounds to correct against.
    pub offline: Arc<OfflineBounds>,
    /// What an out-of-bound value becomes.
    pub correction: Correction,
    /// Display name.
    pub name: String,
}

impl ProtectionFactory for OfflineCoverageFactory {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        vec![Box::new(Protector::offline(
            Coverage::linears(self.kinds.clone()),
            self.offline.linear.clone(),
            self.correction,
            NanPolicy::ToZero,
        ))]
    }

    fn scheme_name(&self) -> &str {
        &self.name
    }
}
