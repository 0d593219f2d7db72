//! The statistical fault-injection campaign engine.
//!
//! A campaign evaluates one `(model, input set, fault model, protection)`
//! configuration by running `inputs × trials_per_input` independent
//! generations, each with exactly one injected fault at a uniformly sampled
//! site, and classifying every output against the input's fault-free
//! reference generation (§2.3).
//!
//! Trials are distributed over a [`WorkStealingPool`]; each trial derives
//! its RNG stream from `(campaign seed, input id, trial id)`, so results
//! are bit-reproducible for any thread count.
//!
//! **Crash safety.** Every trial body runs under
//! [`ft2_parallel::catch_quiet`]: a panic inside the model, the injector, or
//! a protection tap is classified as [`Outcome::Crash`] (with the panic's
//! `file:line` and message) instead of killing the campaign, and a
//! [`WatchdogTap`] may abort runaway generations as [`Outcome::Hang`]. Both
//! are detected unrecoverable errors (DUE) in the outcome taxonomy.
//! [`Campaign::run_resumable`] additionally checkpoints the aggregate every
//! few hundred tasks so an interrupted campaign resumes bit-identically.

use crate::checkpoint::CampaignCheckpoint;
use crate::inject::{FaultInjector, StateFaultInjector};
use crate::model::{FaultDuration, FaultModel, FaultTarget};
use crate::outcome::{Outcome, OutcomeCounts, OutcomeJudge};
use crate::site::{FaultSite, SiteSampler, StepFilter, StepWeighting};
use crate::trace::{TraceEvent, TraceTap};
use crate::watchdog::{TrialAbort, WatchdogTap};
use ft2_model::{
    LayerKind, LayerTap, Model, RecoveryPolicy, StateTap, StateTapList, StepRecord, TapList,
};
use ft2_numeric::Xoshiro256StarStar;
use ft2_parallel::{catch_quiet, WorkStealingPool};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Produces fresh protection taps for each inference trial.
///
/// FT2's online protection is stateful per inference (bounds are profiled
/// during the trial's own first-token generation), so each trial needs its
/// own tap instances. Implementations live in `ft2-core`.
pub trait ProtectionFactory: Sync {
    /// Create the protection taps for one trial, to run *after* the fault
    /// injector in hook order.
    fn make(&self) -> Vec<Box<dyn LayerTap>>;

    /// Create the stored-state taps (integrity scrubber / KV guard) for one
    /// trial, to run *after* the stored-state fault injector in state-pass
    /// order — a guard then observes a same-step corruption before the
    /// forward consumes it. Default: none.
    fn make_state(&self) -> Vec<Box<dyn StateTap>> {
        Vec::new()
    }

    /// Scheme name for reports.
    fn scheme_name(&self) -> &str {
        "No Protection"
    }
}

/// The no-protection baseline.
pub struct Unprotected;

impl ProtectionFactory for Unprotected {
    fn make(&self) -> Vec<Box<dyn LayerTap>> {
        Vec::new()
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; every trial stream derives from it.
    pub seed: u64,
    /// Fault-injection trials per input.
    pub trials_per_input: usize,
    /// Tokens to generate per trial (60 for QA, 180 for math in the paper;
    /// scaled down with the models here).
    pub gen_tokens: usize,
    /// Which bits faults flip.
    pub fault_model: FaultModel,
    /// How long injected faults endure (transient upset, intermittent
    /// re-striker, or persistent corruption).
    pub fault_duration: FaultDuration,
    /// What faults corrupt: computed activations, stored weights, or cached
    /// K/V rows.
    pub fault_target: FaultTarget,
    /// Which generation steps faults may strike.
    pub step_filter: StepFilter,
    /// How steps are weighted when drawing the fault step.
    pub step_weighting: StepWeighting,
    /// Restrict faults to these layer kinds (None = all block linears).
    pub layer_filter: Option<Vec<LayerKind>>,
    /// Watchdog wall-clock deadline per trial, in milliseconds (None =
    /// no deadline). Wall-clock aborts are *not* bit-reproducible across
    /// machines; reproducible campaigns should use only the token budget.
    pub trial_deadline_ms: Option<u64>,
    /// Watchdog budget in generation steps per trial (None = no budget).
    /// Deterministic: a trial that reaches this step is a [`Outcome::Hang`]
    /// at every thread count and on every machine.
    pub trial_token_budget: Option<usize>,
    /// Token-rollback retry budget per decode step (0 = recovery disabled,
    /// the pre-recovery behaviour). With a budget, an anomaly-storm verdict
    /// rolls the KV cache back and re-decodes the token with escalated
    /// protection instead of accepting a likely-SDC token.
    pub recovery_retries: u32,
    /// After the rollback retry budget is exhausted, take one
    /// repair-and-retry rung: sweep every integrity tap's full repair pass
    /// (weight tiles restored from the golden copy, poisoned KV positions
    /// invalidated and rebuilt), then re-decode once more. Requires state
    /// taps to have any effect.
    pub recovery_repair: bool,
}

impl CampaignConfig {
    /// A small default campaign, mainly for tests and examples.
    pub fn quick(fault_model: FaultModel) -> CampaignConfig {
        CampaignConfig {
            seed: 0xF72_CAFE,
            trials_per_input: 50,
            gen_tokens: 16,
            fault_model,
            fault_duration: FaultDuration::Transient,
            fault_target: FaultTarget::Activation,
            step_filter: StepFilter::AllSteps,
            step_weighting: StepWeighting::default(),
            layer_filter: None,
            trial_deadline_ms: None,
            trial_token_budget: None,
            recovery_retries: 0,
            recovery_repair: false,
        }
    }
}

/// Everything one isolated trial produces: the aggregate record plus the
/// raw evidence (`ft2-repro replay` renders the latter).
struct TrialBody {
    record: TrialRecord,
    /// `(original, corrupted)` at the injection site, when reached.
    injected: Option<(f32, f32)>,
    /// The faulty generation (empty for crashed/hung trials).
    tokens: Vec<u32>,
    /// Per-step anomaly reports of the accepted execution.
    steps: Vec<StepRecord>,
}

/// A crashed trial's identity and panic details, kept for replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// Input index of the crashed trial.
    pub input: usize,
    /// Trial index within the input.
    pub trial: usize,
    /// `file:line` where the panic was raised.
    pub site: String,
    /// The panic message.
    pub message: String,
}

/// How many crashed trials a campaign records individually (counters are
/// exact regardless; this caps only the replay-pointer list).
const MAX_CRASH_RECORDS: usize = 64;

/// Aggregated campaign output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignResult {
    /// Overall outcome counts.
    pub counts: OutcomeCounts,
    /// Breakdown by targeted layer kind (Fig. 6-style analyses).
    pub per_layer: BTreeMap<LayerKind, OutcomeCounts>,
    /// Breakdown by bit class ("sign" / "exponent" / "mantissa").
    pub per_bit_class: BTreeMap<&'static str, OutcomeCounts>,
    /// Outcomes of faults that struck the prefill step.
    pub first_token_faults: OutcomeCounts,
    /// The first [`MAX_CRASH_RECORDS`] crashed trials, in task order — each
    /// is replayable via `ft2-repro replay <seed>/<input>/<trial>`.
    pub crashes: Vec<TrialFailure>,
    /// Total token rollbacks performed across all trials.
    pub rollbacks: u64,
    /// Total anomaly-storm verdicts across all trials (including storms
    /// cleared by a rollback).
    pub storms: u64,
    /// Total weight tiles re-verified by integrity scrubbing (the scrub
    /// work the campaign paid for, repairs or not).
    pub scrubbed_tiles: u64,
    /// Total weight tiles found corrupted and restored from the golden
    /// copy.
    pub weight_repairs: u64,
    /// Total KV-cache positions invalidated and rebuilt after a guard
    /// flagged them.
    pub kv_repairs: u64,
    /// Total repair-and-retry rungs taken after rollback exhaustion.
    pub repair_retries: u64,
    /// Total cross-replica failovers: in-flight requests handed off to a
    /// surviving replica after a crash, hang, or quarantine.
    pub failovers: u64,
    /// Total quarantined replicas rebuilt from the golden copy that
    /// rejoined live service.
    pub replica_rebuilds: u64,
}

impl CampaignResult {
    /// Overall SDC rate.
    pub fn sdc_rate(&self) -> f64 {
        self.counts.sdc_rate()
    }

    /// 95% CI half-width of the SDC rate.
    pub fn sdc_ci95(&self) -> f64 {
        self.counts.sdc_ci95()
    }

    /// Fold one trial record into the aggregate. Order matters only for the
    /// crash list; the counters are commutative.
    fn accumulate(&mut self, rec: &TrialRecord) {
        self.counts.record(&rec.outcome);
        self.per_layer
            .entry(rec.site.point.layer)
            .or_default()
            .record(&rec.outcome);
        self.per_bit_class
            .entry(rec.bit_class)
            .or_default()
            .record(&rec.outcome);
        if rec.site.step == 0 {
            self.first_token_faults.record(&rec.outcome);
        }
        if let Outcome::Crash { site, message } = &rec.outcome {
            if self.crashes.len() < MAX_CRASH_RECORDS {
                self.crashes.push(TrialFailure {
                    input: rec.input,
                    trial: rec.trial,
                    site: site.clone(),
                    message: message.clone(),
                });
            }
        }
        self.rollbacks += rec.rollbacks as u64;
        self.storms += rec.storms as u64;
        self.scrubbed_tiles += rec.scrubbed_tiles;
        self.weight_repairs += rec.weight_repairs;
        self.kv_repairs += rec.kv_repairs;
        self.repair_retries += rec.repair_retries as u64;
    }
}

/// One trial's record (kept compact; campaigns run hundreds of thousands).
#[derive(Clone, Debug)]
pub struct TrialRecord {
    /// Input index.
    pub input: usize,
    /// Trial index within the input.
    pub trial: usize,
    /// The injected fault site.
    pub site: FaultSite,
    /// The judged (or DUE) outcome.
    pub outcome: Outcome,
    /// Bit class of the flipped bit ("sign" / "exponent" / "mantissa").
    pub bit_class: &'static str,
    /// Token rollbacks performed in this trial.
    pub rollbacks: u32,
    /// Anomaly-storm verdicts observed in this trial.
    pub storms: u32,
    /// Weight tiles re-verified by scrubbing in this trial.
    pub scrubbed_tiles: u64,
    /// Weight tiles restored from the golden copy in this trial.
    pub weight_repairs: u64,
    /// KV-cache positions invalidated and rebuilt in this trial.
    pub kv_repairs: u64,
    /// Repair-and-retry rungs taken in this trial.
    pub repair_retries: u32,
}

/// Verbose observations from a traced single-trial replay.
#[derive(Clone, Debug)]
pub struct TrialTrace {
    /// `(original, corrupted)` values at the injection site, when the site
    /// was reached before the trial ended.
    pub injected: Option<(f32, f32)>,
    /// Anomalous layer outputs (NaN/Inf or new peak magnitude), in order.
    pub events: Vec<TraceEvent>,
    /// Largest finite magnitude observed anywhere in the trial.
    pub peak_abs: f32,
    /// Hook firings observed.
    pub firings: usize,
    /// The faulty generation (empty when the trial crashed or hung).
    pub tokens: Vec<u32>,
    /// The fault-free reference generation.
    pub reference: Vec<u32>,
    /// Per-step anomaly reports of the accepted execution (clamp/NaN
    /// counts, verdict, re-decode count) — why a rollback fired, or didn't.
    pub steps: Vec<StepRecord>,
}

/// Checkpoint cadence and resume behaviour for
/// [`Campaign::run_resumable`].
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (created on first write, removed on completion).
    pub path: PathBuf,
    /// Write a checkpoint after every `every` completed tasks (min 1).
    pub every: usize,
    /// Load an existing checkpoint at `path` and continue after its prefix.
    /// With `false`, any stale checkpoint is overwritten.
    pub resume: bool,
    /// Stop (checkpoint intact, `interrupted = true`) after completing this
    /// many tasks in *this* invocation. Simulates an interruption; used by
    /// the resume-determinism tests. `None` runs to completion.
    pub abort_after: Option<usize>,
}

impl CheckpointPolicy {
    /// A policy that checkpoints every `every` tasks at `path` and resumes
    /// from any compatible checkpoint found there.
    pub fn resume_at(path: impl Into<PathBuf>, every: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            path: path.into(),
            every,
            resume: true,
            abort_after: None,
        }
    }
}

/// Outcome of a resumable campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Aggregate over tasks `0..completed_tasks`.
    pub result: CampaignResult,
    /// Task prefix restored from the checkpoint (0 for a fresh run).
    pub resumed_from: usize,
    /// Tasks folded into `result` so far.
    pub completed_tasks: usize,
    /// `inputs × trials_per_input`.
    pub total_tasks: usize,
    /// True when the run stopped early (`abort_after`); the checkpoint file
    /// is left in place for a later resume.
    pub interrupted: bool,
}

/// A bound campaign: model + inputs + judge.
pub struct Campaign<'a> {
    model: &'a Model,
    inputs: &'a [Vec<u32>],
    judge: &'a dyn OutcomeJudge,
    config: CampaignConfig,
    references: Vec<Vec<u32>>,
}

impl<'a> Campaign<'a> {
    /// Prepare a campaign: computes the fault-free reference generation for
    /// every input (unprotected — the ground truth the inputs were selected
    /// to answer correctly).
    pub fn new(
        model: &'a Model,
        inputs: &'a [Vec<u32>],
        judge: &'a dyn OutcomeJudge,
        config: CampaignConfig,
        pool: &WorkStealingPool,
    ) -> Campaign<'a> {
        assert!(!inputs.is_empty(), "campaign needs at least one input");
        let gen_tokens = config.gen_tokens;
        let references = pool.map(inputs, 1, |_, prompt| {
            model.generate(prompt, gen_tokens, &mut TapList::new()).tokens
        });
        Campaign {
            model,
            inputs,
            judge,
            config,
            references,
        }
    }

    /// The fault-free reference generations.
    pub fn references(&self) -> &[Vec<u32>] {
        &self.references
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Derive the fault site of trial `(input_id, trial_id)` — the same
    /// derivation every campaign run uses, so a site can be inspected (or a
    /// trial replayed) without running anything else.
    pub fn sample_site(&self, input_id: usize, trial_id: usize) -> (FaultSite, &'static str) {
        let format = self.model.config().dtype;
        let prompt = &self.inputs[input_id];
        let mut rng = Xoshiro256StarStar::for_stream(
            self.config.seed,
            &[input_id as u64, trial_id as u64],
        );
        let mut sampler =
            SiteSampler::new(self.model.config(), prompt.len(), self.config.gen_tokens)
                .with_step_filter(self.config.step_filter)
                .with_step_weighting(self.config.step_weighting)
                .with_duration(self.config.fault_duration)
                .with_target(self.config.fault_target);
        if let Some(kinds) = &self.config.layer_filter {
            sampler = sampler.with_layer_filter(kinds.clone());
        }
        let site = sampler.sample(&mut rng, self.config.fault_model, format);
        let bit_class = format.bit_class(site.bits[0]);
        (site, bit_class)
    }

    /// Run one trial in isolation, classifying panics as
    /// [`Outcome::Crash`] and watchdog aborts as [`Outcome::Hang`].
    pub fn trial_record(
        &self,
        protection: &dyn ProtectionFactory,
        input_id: usize,
        trial_id: usize,
    ) -> TrialRecord {
        self.run_trial(protection, input_id, trial_id, None).record
    }

    /// Run one trial with verbose tracing (for `ft2-repro replay`). The
    /// trace survives a crashing or hanging trial: events up to the abort
    /// are retained.
    pub fn trial_record_traced(
        &self,
        protection: &dyn ProtectionFactory,
        input_id: usize,
        trial_id: usize,
    ) -> (TrialRecord, TrialTrace) {
        let mut tracer = TraceTap::new();
        let body = self.run_trial(protection, input_id, trial_id, Some(&mut tracer));
        let trace = TrialTrace {
            injected: body.injected,
            events: tracer.events,
            peak_abs: tracer.peak_abs,
            firings: tracer.firings,
            tokens: body.tokens,
            reference: self.references[input_id].clone(),
            steps: body.steps,
        };
        (body.record, trace)
    }

    /// The isolated trial body shared by all run modes. Layer-tap order:
    /// watchdog (aborts fire even when a later tap stalls) → injector →
    /// protection → tracer (observes what protection let through).
    /// State-tap order: stored-state injector → integrity taps (a guard
    /// sees a same-step corruption in the pass that would consume it).
    fn run_trial(
        &self,
        protection: &dyn ProtectionFactory,
        input_id: usize,
        trial_id: usize,
        tracer: Option<&mut TraceTap>,
    ) -> TrialBody {
        let prompt = &self.inputs[input_id];
        let (site, bit_class) = self.sample_site(input_id, trial_id);

        let activation_fault = site.target == FaultTarget::Activation;
        let mut injector = activation_fault.then(|| FaultInjector::new(site.clone()));
        let mut state_injector =
            (!activation_fault).then(|| StateFaultInjector::new(site.clone()));
        let mut watchdog = WatchdogTap::new(
            self.config.trial_deadline_ms.map(Duration::from_millis),
            self.config.trial_token_budget,
        );
        let mut protection_taps = protection.make();
        let mut state_taps = protection.make_state();
        let mut policy = RecoveryPolicy::retries(self.config.recovery_retries);
        if self.config.recovery_repair {
            policy = policy.with_repair();
        }
        let generated = catch_quiet(|| {
            let mut taps = TapList::new();
            if watchdog.is_armed() {
                taps.push(&mut watchdog);
            }
            if let Some(inj) = injector.as_mut() {
                taps.push(inj);
            }
            for t in protection_taps.iter_mut() {
                taps.push(t.as_mut());
            }
            if let Some(tr) = tracer {
                taps.push(tr);
            }
            let mut state = StateTapList::new();
            if let Some(inj) = state_injector.as_mut() {
                state.push(inj);
            }
            for t in state_taps.iter_mut() {
                state.push(t.as_mut());
            }
            self.model.generate_resilient(
                prompt,
                self.config.gen_tokens,
                &mut taps,
                &mut state,
                policy,
            )
        });

        let mut scrubbed_tiles = 0;
        let mut weight_repairs = 0;
        let mut kv_repairs = 0;
        let mut repair_retries = 0;
        let (outcome, tokens, steps, rollbacks, storms) = match generated {
            Ok(out) => {
                debug_assert!(
                    injector.as_ref().map(FaultInjector::fired).unwrap_or(true)
                        && state_injector
                            .as_ref()
                            .map(StateFaultInjector::fired)
                            .unwrap_or(true),
                    "fault site never reached"
                );
                scrubbed_tiles = out.scrubbed_tiles;
                weight_repairs = out.weight_repairs;
                kv_repairs = out.kv_repairs;
                repair_retries = out.repair_retries;
                // A transient fault strikes once, so a rolled-back token is
                // re-decoded *without* it; persistent faults re-corrupt (or
                // stay resident in) re-decodes, and only a stored-state
                // repair removes them.
                let outcome = if out.recovery_failed {
                    Outcome::RecoveryFailed {
                        retries: out.rollbacks,
                    }
                } else {
                    let judged = self.judge.classify(&self.references[input_id], &out.tokens);
                    if judged.is_masked() && out.repairs() > 0 {
                        Outcome::Repaired {
                            repairs: out.repairs(),
                        }
                    } else if out.rollbacks > 0 && judged.is_masked() {
                        Outcome::Recovered {
                            retries: out.rollbacks,
                        }
                    } else {
                        judged
                    }
                };
                (outcome, out.tokens, out.steps, out.rollbacks, out.storms)
            }
            Err(caught) if caught.payload.downcast_ref::<TrialAbort>().is_some() => {
                (Outcome::Hang, Vec::new(), Vec::new(), 0, 0)
            }
            Err(caught) => (
                Outcome::Crash {
                    site: caught.site,
                    message: caught.message,
                },
                Vec::new(),
                Vec::new(),
                0,
                0,
            ),
        };
        let injected = match (&injector, &state_injector) {
            (Some(inj), _) => inj.original.zip(inj.corrupted),
            (_, Some(inj)) => inj.original.zip(inj.corrupted),
            _ => None,
        };
        TrialBody {
            record: TrialRecord {
                input: input_id,
                trial: trial_id,
                site,
                outcome,
                bit_class,
                rollbacks,
                storms,
                scrubbed_tiles,
                weight_repairs,
                kv_repairs,
                repair_retries,
            },
            injected,
            tokens,
            steps,
        }
    }

    /// Run the full campaign under a protection scheme.
    pub fn run(&self, protection: &dyn ProtectionFactory, pool: &WorkStealingPool) -> CampaignResult {
        let trials = self.config.trials_per_input;
        let total = self.inputs.len() * trials;
        let records: Vec<TrialRecord> = pool.map(
            &(0..total).collect::<Vec<usize>>(),
            8,
            |_, &task| self.trial_record(protection, task / trials, task % trials),
        );
        let mut result = CampaignResult::default();
        for rec in &records {
            result.accumulate(rec);
        }
        result
    }

    /// Configuration fingerprint used to validate checkpoint compatibility.
    /// Covers everything that changes trial outcomes, including a hash of
    /// the reference generations (so a different model or input set is
    /// rejected even at identical config).
    pub fn fingerprint(&self, scheme: &str) -> String {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over reference tokens
        for reference in &self.references {
            for &t in reference {
                h = (h ^ t as u64).wrapping_mul(0x100_0000_01b3);
            }
            h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
        }
        let layers = match &self.config.layer_filter {
            None => "all".to_string(),
            Some(kinds) => kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join("+"),
        };
        format!(
            "v3|seed={}|trials={}|gen={}|fault={:?}|duration={:?}|target={}|steps={:?}|weight={:?}|layers={}|inputs={}|budget={:?}|deadline={:?}|recovery={}|repair={}|scheme={}|refs={:016x}",
            self.config.seed,
            self.config.trials_per_input,
            self.config.gen_tokens,
            self.config.fault_model,
            self.config.fault_duration,
            self.config.fault_target.name(),
            self.config.step_filter,
            self.config.step_weighting,
            layers,
            self.inputs.len(),
            self.config.trial_token_budget,
            self.config.trial_deadline_ms,
            self.config.recovery_retries,
            self.config.recovery_repair,
            scheme,
            h,
        )
    }

    /// Run the campaign with periodic checkpointing, optionally resuming a
    /// previous invocation's checkpoint. Because trials derive their RNG
    /// streams from `(seed, input, trial)` and the aggregate folds records
    /// in task order, an interrupted-and-resumed run produces a result
    /// bit-identical to an uninterrupted one.
    pub fn run_resumable(
        &self,
        protection: &dyn ProtectionFactory,
        pool: &WorkStealingPool,
        policy: &CheckpointPolicy,
    ) -> Result<CampaignRun, String> {
        let trials = self.config.trials_per_input;
        let total = self.inputs.len() * trials;
        let fingerprint = self.fingerprint(protection.scheme_name());

        let mut result = CampaignResult::default();
        let mut done = 0usize;
        if policy.resume {
            if let Some(cp) = CampaignCheckpoint::load(&policy.path)? {
                if cp.fingerprint != fingerprint {
                    return Err(format!(
                        "checkpoint {} belongs to a different campaign\n  found:    {}\n  expected: {}",
                        policy.path.display(),
                        cp.fingerprint,
                        fingerprint
                    ));
                }
                if cp.completed_tasks > total {
                    return Err(format!(
                        "checkpoint claims {} completed tasks of {total}",
                        cp.completed_tasks
                    ));
                }
                done = cp.completed_tasks;
                result = cp.result;
            }
        }
        let resumed_from = done;
        let every = policy.every.max(1);

        while done < total {
            let mut end = (done + every).min(total);
            if let Some(limit) = policy.abort_after {
                end = end.min(resumed_from + limit);
            }
            let tasks: Vec<usize> = (done..end).collect();
            let records = pool.map(&tasks, 8, |_, &task| {
                self.trial_record(protection, task / trials, task % trials)
            });
            for rec in &records {
                result.accumulate(rec);
            }
            done = end;
            CampaignCheckpoint {
                fingerprint: fingerprint.clone(),
                completed_tasks: done,
                result: result.clone(),
            }
            .save(&policy.path)
            .map_err(|e| format!("write checkpoint {}: {e}", policy.path.display()))?;

            if policy.abort_after.is_some_and(|limit| done >= resumed_from + limit)
                && done < total
            {
                return Ok(CampaignRun {
                    result,
                    resumed_from,
                    completed_tasks: done,
                    total_tasks: total,
                    interrupted: true,
                });
            }
        }

        // Complete: the checkpoint has served its purpose.
        std::fs::remove_file(&policy.path).ok();
        Ok(CampaignRun {
            result,
            resumed_from,
            completed_tasks: done,
            total_tasks: total,
            interrupted: false,
        })
    }

    /// Run every input once with protection but **no fault**, returning the
    /// outcome of each run against the clean reference. This is the Fig. 3
    /// experiment: protection with ill-fitting bounds can corrupt fault-free
    /// inference by clipping benign values.
    pub fn run_fault_free(
        &self,
        protection: &dyn ProtectionFactory,
        pool: &WorkStealingPool,
    ) -> Vec<Outcome> {
        let gen_tokens = self.config.gen_tokens;
        pool.map(self.inputs, 1, |i, prompt| {
            let mut protection_taps = protection.make();
            let mut taps = TapList::new();
            for t in protection_taps.iter_mut() {
                taps.push(t.as_mut());
            }
            let out = self.model.generate(prompt, gen_tokens, &mut taps);
            drop(taps);
            self.judge.classify(&self.references[i], &out.tokens)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ExactJudge;
    use ft2_model::ModelConfig;

    fn tiny_campaign_parts() -> (Model, Vec<Vec<u32>>) {
        let model = Model::new(ModelConfig::tiny_opt());
        let inputs: Vec<Vec<u32>> = vec![
            vec![3, 14, 15, 92, 6],
            vec![27, 18, 28, 18, 2, 8],
            vec![1, 41, 42, 13, 56],
        ];
        (model, inputs)
    }

    #[test]
    fn campaign_runs_and_counts_all_trials() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(4);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 20;
        cfg.gen_tokens = 8;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        assert_eq!(campaign.references().len(), 3);
        let result = campaign.run(&Unprotected, &pool);
        assert_eq!(result.counts.total(), 60);
        let layer_total: u64 = result.per_layer.values().map(|c| c.total()).sum();
        assert_eq!(layer_total, 60);
        let bit_total: u64 = result.per_bit_class.values().map(|c| c.total()).sum();
        assert_eq!(bit_total, 60);
        assert!(result.crashes.is_empty(), "clean engine must not crash");
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let (model, inputs) = tiny_campaign_parts();
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::ExponentBit);
        cfg.trials_per_input = 15;
        cfg.gen_tokens = 6;

        let pool1 = WorkStealingPool::new(1);
        let c1 = Campaign::new(&model, &inputs, &judge, cfg.clone(), &pool1);
        let r1 = c1.run(&Unprotected, &pool1);

        let pool4 = WorkStealingPool::new(4);
        let c4 = Campaign::new(&model, &inputs, &judge, cfg, &pool4);
        let r4 = c4.run(&Unprotected, &pool4);

        assert_eq!(r1.counts, r4.counts);
        assert_eq!(r1.per_layer, r4.per_layer);
    }

    #[test]
    fn exponent_faults_cause_more_sdc_than_single_bit() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(4);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 120;
        cfg.gen_tokens = 8;
        let c = Campaign::new(&model, &inputs, &judge, cfg.clone(), &pool);
        let single = c.run(&Unprotected, &pool);

        let mut cfg_exp = cfg;
        cfg_exp.fault_model = FaultModel::ExponentBit;
        let c_exp = Campaign::new(&model, &inputs, &judge, cfg_exp, &pool);
        let exp = c_exp.run(&Unprotected, &pool);

        assert!(
            exp.sdc_rate() >= single.sdc_rate(),
            "EXP ({}) must be at least as severe as 1-bit ({})",
            exp.sdc_rate(),
            single.sdc_rate()
        );
    }

    #[test]
    fn fault_free_run_without_protection_is_identical() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(2);
        let judge = ExactJudge;
        let campaign = Campaign::new(
            &model,
            &inputs,
            &judge,
            CampaignConfig::quick(FaultModel::SingleBit),
            &pool,
        );
        let outcomes = campaign.run_fault_free(&Unprotected, &pool);
        assert!(outcomes.iter().all(|o| *o == Outcome::MaskedIdentical));
    }

    #[test]
    fn first_token_filter_only_hits_step0() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(2);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 10;
        cfg.gen_tokens = 6;
        cfg.step_filter = StepFilter::FirstTokenOnly;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        let result = campaign.run(&Unprotected, &pool);
        assert_eq!(result.first_token_faults.total(), result.counts.total());
    }

    /// A protection "scheme" that panics on a subset of trials — the
    /// adversarial case the crash isolation exists for.
    struct PanicOnLayer {
        every_nth_firing: usize,
    }

    struct PanickingTap {
        firing: usize,
        every: usize,
    }

    impl LayerTap for PanickingTap {
        fn on_output(&mut self, _ctx: &ft2_model::TapCtx, _data: &mut ft2_tensor::Matrix) {
            self.firing += 1;
            if self.firing == self.every {
                panic!("protection tap exploded on firing {}", self.firing);
            }
        }
    }

    impl ProtectionFactory for PanicOnLayer {
        fn make(&self) -> Vec<Box<dyn LayerTap>> {
            vec![Box::new(PanickingTap {
                firing: 0,
                every: self.every_nth_firing,
            })]
        }

        fn scheme_name(&self) -> &str {
            "Panicking"
        }
    }

    #[test]
    fn panicking_tap_is_classified_as_crash_not_fatal() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(4);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 8;
        cfg.gen_tokens = 4;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        // Every trial's tap panics on its 3rd firing → all 24 trials crash.
        let result = campaign.run(&PanicOnLayer { every_nth_firing: 3 }, &pool);
        assert_eq!(result.counts.total(), 24);
        assert_eq!(result.counts.crash, 24);
        assert_eq!(result.crashes.len(), 24);
        let failure = &result.crashes[0];
        assert!(failure.message.contains("protection tap exploded"));
        assert!(failure.site.contains("campaign.rs"), "site: {}", failure.site);
        // Crash list is in task order.
        assert_eq!((failure.input, failure.trial), (0, 0));

        // The pool survives and runs a clean campaign afterwards.
        let clean = campaign.run(&Unprotected, &pool);
        assert_eq!(clean.counts.crash, 0);
        assert_eq!(clean.counts.total(), 24);
    }

    #[test]
    fn token_budget_watchdog_hangs_deterministically() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(2);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 5;
        cfg.gen_tokens = 8;
        // Budget below gen_tokens: every trial trips the watchdog.
        cfg.trial_token_budget = Some(3);
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        let result = campaign.run(&Unprotected, &pool);
        assert_eq!(result.counts.hang, 15);
        assert_eq!(result.counts.total(), 15);
        assert!(result.crashes.is_empty(), "hangs are not crashes");

        // A generous budget changes nothing.
        let mut cfg2 = CampaignConfig::quick(FaultModel::SingleBit);
        cfg2.trials_per_input = 5;
        cfg2.gen_tokens = 8;
        let baseline = Campaign::new(&model, &inputs, &judge, cfg2.clone(), &pool)
            .run(&Unprotected, &pool);
        cfg2.trial_token_budget = Some(1000);
        let budgeted = Campaign::new(&model, &inputs, &judge, cfg2, &pool)
            .run(&Unprotected, &pool);
        assert_eq!(baseline.counts, budgeted.counts);
    }

    #[test]
    fn traced_replay_matches_campaign_record() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(2);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::ExponentBit);
        cfg.trials_per_input = 6;
        cfg.gen_tokens = 6;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        let full = campaign.run(&Unprotected, &pool);

        // Replaying each trial individually reproduces the aggregate.
        let mut replayed = CampaignResult::default();
        for input in 0..inputs.len() {
            for trial in 0..6 {
                let (rec, trace) = campaign.trial_record_traced(&Unprotected, input, trial);
                assert_eq!((rec.input, rec.trial), (input, trial));
                assert!(trace.firings > 0);
                assert!(
                    trace.injected.is_some(),
                    "completed trial must reach its site"
                );
                replayed.accumulate(&rec);
            }
        }
        assert_eq!(replayed, full);
    }

    #[test]
    fn resumable_run_matches_uninterrupted_bit_for_bit() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(4);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::ExponentBit);
        cfg.trials_per_input = 10;
        cfg.gen_tokens = 5;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        let uninterrupted = campaign.run(&Unprotected, &pool);

        let path = std::env::temp_dir().join("ft2-campaign-resume-test.json");
        std::fs::remove_file(&path).ok();

        // First invocation: killed after 7 tasks (mid-input).
        let first = campaign
            .run_resumable(
                &Unprotected,
                &pool,
                &CheckpointPolicy {
                    path: path.clone(),
                    every: 4,
                    resume: true,
                    abort_after: Some(7),
                },
            )
            .unwrap();
        assert!(first.interrupted);
        assert_eq!(first.completed_tasks, 7);
        assert!(path.exists(), "interrupted run must leave its checkpoint");

        // Second invocation resumes and completes.
        let second = campaign
            .run_resumable(&Unprotected, &pool, &CheckpointPolicy::resume_at(&path, 4))
            .unwrap();
        assert!(!second.interrupted);
        assert_eq!(second.resumed_from, 7);
        assert_eq!(second.completed_tasks, 30);
        assert_eq!(second.result, uninterrupted);
        assert!(!path.exists(), "completed run must remove its checkpoint");
    }

    #[test]
    fn resume_rejects_foreign_checkpoint() {
        let (model, inputs) = tiny_campaign_parts();
        let pool = WorkStealingPool::new(2);
        let judge = ExactJudge;
        let mut cfg = CampaignConfig::quick(FaultModel::SingleBit);
        cfg.trials_per_input = 4;
        cfg.gen_tokens = 4;
        let campaign = Campaign::new(&model, &inputs, &judge, cfg.clone(), &pool);

        let path = std::env::temp_dir().join("ft2-campaign-foreign-test.json");
        std::fs::remove_file(&path).ok();
        let partial = campaign
            .run_resumable(
                &Unprotected,
                &pool,
                &CheckpointPolicy {
                    path: path.clone(),
                    every: 4,
                    resume: false,
                    abort_after: Some(4),
                },
            )
            .unwrap();
        assert!(partial.interrupted);

        // Different seed → different fingerprint → resume must refuse.
        cfg.seed ^= 0xDEAD;
        let other = Campaign::new(&model, &inputs, &judge, cfg, &pool);
        let err = other
            .run_resumable(&Unprotected, &pool, &CheckpointPolicy::resume_at(&path, 4))
            .unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
