//! The inference engine: embedding, decoder stack, LM head, and greedy
//! autoregressive generation with a KV cache.
//!
//! Generation is one loop, `Model::generate_over`: every step — the prefill
//! is step 0 — snapshots the cache, runs one pass of the layer walk, lets
//! the taps judge it and climbs the [`Ladder`] on a storm. It is generic
//! over a `Host`, the walk's [`Exec`] plus what that executor does before
//! and after a pass and about a pass that itself failed: [`Dense`] for
//! [`Model::generate_resilient`] (no hooks, cannot fail), the shard fan-out
//! for [`crate::shard::ShardedModel::generate_tapped`] (shard taps around
//! the pass; degrade or fail).

use crate::attention::KvCacheBlock;
use crate::config::{ArchStyle, ModelConfig, RopeTable};
use crate::hooks::{AnomalyVerdict, StepReport, TapList};
use crate::ladder::{Ladder, Rung};
use crate::scratch::DecodeScratch;
use crate::state::{StateCtx, StateReport, StateTapList};
use crate::walk::{self, Dense, Exec, Lane};
use crate::weights::ModelWeights;
use ft2_tensor::{argmax, Matrix};
use std::convert::Infallible;
use std::time::Instant;

/// A model instance: configuration plus its synthetic checkpoint.
pub struct Model {
    config: ModelConfig,
    weights: ModelWeights,
    /// Precomputed RoPE angles (Llama-style models only).
    rope: Option<RopeTable>,
}

impl Clone for Model {
    /// A bit-identical copy of the model (weights are plain `f32` buffers),
    /// so replica sets can stamp out N instances from one prototype without
    /// re-deriving the synthetic checkpoint N times.
    fn clone(&self) -> Model {
        Model {
            config: self.config.clone(),
            weights: self.weights.clone(),
            rope: self.rope.clone(),
        }
    }
}

/// How the engine reacts to a [`AnomalyVerdict::Storm`] during decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum re-decodes of one token before the generation is declared
    /// [`GenerationOutput::recovery_failed`]. `0` disables rollback: storm
    /// verdicts are recorded but the token is accepted as-is.
    pub max_retries: u32,
    /// After the retry budget is exhausted, take one repair-and-retry
    /// rung: run the registered state
    /// taps' full repair sweep (weights restored from the golden copy,
    /// poisoned KV pages invalidated and re-decoded) and grant one extra
    /// re-decode. Meaningless without state taps.
    pub repair: bool,
    /// Sharded execution only: when a shard failure survives re-execution
    /// and repair, evict the shard, re-partition onto the survivors, and
    /// keep generating (reported as degraded) instead of failing the
    /// generation. The unsharded engine ignores this field.
    pub shard_degrade: bool,
}

impl RecoveryPolicy {
    /// No rollback — the pre-recovery engine behaviour.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            repair: false,
            shard_degrade: false,
        }
    }

    /// Roll back and re-decode a storming token up to `n` times. Sharded
    /// runs re-execute a failed partial once whenever the policy is
    /// enabled, matching the transient-fault assumption of the rollback
    /// rung.
    pub fn retries(n: u32) -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: n,
            repair: false,
            shard_degrade: false,
        }
    }

    /// Enable the repair-and-retry rung above the retry budget.
    pub fn with_repair(mut self) -> RecoveryPolicy {
        self.repair = true;
        self
    }

    /// Enable the terminal degrade rung (sharded runs): evict a dead
    /// shard and keep serving on the survivors.
    pub fn with_shard_degrade(mut self) -> RecoveryPolicy {
        self.shard_degrade = true;
        self
    }

    /// Is rollback recovery active?
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }
}

/// What happened at one generation step (the finally-accepted execution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Generation step (0 = prefill).
    pub step: usize,
    /// Merged tap report of the accepted execution of this step.
    pub report: StepReport,
    /// Rollback re-decodes taken before the step was accepted.
    pub redecodes: u32,
    /// Stored-state repairs applied during this step (weight tiles restored
    /// plus KV positions rebuilt).
    pub repairs: u32,
}

/// Result of a generation run.
#[derive(Clone, Debug)]
pub struct GenerationOutput {
    /// The generated tokens (not including the prompt), in order.
    pub tokens: Vec<u32>,
    /// Wall-clock time of the prefill (first-token) step, nanoseconds.
    pub prefill_ns: u64,
    /// Wall-clock time of all decode steps, nanoseconds.
    pub decode_ns: u64,
    /// Per-step anomaly reports (one entry per accepted step, in order).
    pub steps: Vec<StepRecord>,
    /// Total token rollbacks performed.
    pub rollbacks: u32,
    /// Storm verdicts observed, including ones cleared by a rollback.
    pub storms: u32,
    /// A step exhausted its retry budget while still storming (only
    /// possible with an enabled [`RecoveryPolicy`]).
    pub recovery_failed: bool,
    /// Weight tiles re-verified by state taps (integrity scrubbing).
    pub scrubbed_tiles: u64,
    /// Weight tiles found corrupted and restored from the golden copy.
    pub weight_repairs: u64,
    /// KV-cache positions invalidated and rebuilt after a guard flagged
    /// them corrupted.
    pub kv_repairs: u64,
    /// Repair-and-retry rungs taken.
    pub repair_retries: u32,
}

impl GenerationOutput {
    /// Total stored-state repair events (weight tiles restored plus KV
    /// positions rebuilt).
    pub fn repairs(&self) -> u64 {
        self.weight_repairs + self.kv_repairs
    }
}

impl GenerationOutput {
    /// Fraction of total time spent generating the first token (the
    /// quantity of Fig. 10, here measured on the simulator).
    pub fn first_token_time_share(&self) -> f64 {
        let total = self.prefill_ns + self.decode_ns;
        if total == 0 {
            0.0
        } else {
            self.prefill_ns as f64 / total as f64
        }
    }
}

/// Per-generation KV cache (one entry per block).
pub struct KvCache {
    /// In block order: the contiguous [`walk::KvStore`]s a pass appends to.
    pub(crate) blocks: Vec<KvCacheBlock>,
}

impl KvCache {
    /// Empty cache for a model.
    pub fn new(config: &ModelConfig) -> Self {
        KvCache {
            blocks: (0..config.blocks)
                .map(|_| KvCacheBlock::new(config.hidden))
                .collect(),
        }
    }

    /// Number of cached positions (same in every block).
    pub fn len(&self) -> usize {
        self.blocks.first().map(|b| b.len()).unwrap_or(0)
    }

    /// True when nothing has been prefetched yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Roll every block back to `len` cached positions (token rollback).
    pub fn truncate(&mut self, len: usize) {
        for b in &mut self.blocks {
            b.truncate(len);
        }
    }

    /// Number of blocks in the cache.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The cached K/V of block `i` (state taps address cache contents
    /// directly; the forward pass uses internal access).
    pub fn block(&self, i: usize) -> &KvCacheBlock {
        &self.blocks[i]
    }

    /// Mutable access to the cached K/V of block `i`.
    pub fn block_mut(&mut self, i: usize) -> &mut KvCacheBlock {
        &mut self.blocks[i]
    }
}

/// Every block's store in block order: what a KV guard seals a position
/// over.
impl AsRef<[KvCacheBlock]> for KvCache {
    fn as_ref(&self) -> &[KvCacheBlock] {
        &self.blocks
    }
}

impl Model {
    /// Build a model from a configuration (constructs the synthetic
    /// checkpoint deterministically from `config.seed`). Panics on a
    /// structurally invalid configuration — see [`ModelConfig::validate`].
    pub fn new(config: ModelConfig) -> Model {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        let weights = ModelWeights::build(&config);
        let rope = (config.style == ArchStyle::LlamaStyle).then(|| RopeTable::build(&config));
        Model {
            config,
            weights,
            rope,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's weights (read-only).
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Mutable access to the model's weights — the repair surface for the
    /// replica-rebuild path (restore corrupted tiles from a golden copy)
    /// and for fault drills that corrupt stored weights in place.
    pub fn weights_mut(&mut self) -> &mut ModelWeights {
        &mut self.weights
    }

    /// Precomputed RoPE table (Llama-style models): what a
    /// [`walk::Pass`] over this model rotates Q and K with.
    pub fn rope_table(&self) -> Option<&RopeTable> {
        self.rope.as_ref()
    }

    /// Run the decoder stack — one lane of the layer walk, its linears on
    /// `exec` — with an explicit weight set (the checkpoint weights
    /// normally; a trial-owned working copy when state taps are registered
    /// and stored-state corruption is possible). The final hidden states
    /// land in `scratch.hidden`.
    #[allow(clippy::too_many_arguments)]
    fn forward_with<E: Exec>(
        &self,
        exec: &mut E,
        weights: &ModelWeights,
        tokens: &[u32],
        start_pos: usize,
        step: usize,
        cache: &mut KvCache,
        taps: &mut TapList<'_>,
        scratch: &mut DecodeScratch,
    ) -> Result<(), E::Error> {
        let lane = Lane {
            rows: tokens.len(),
            start_pos,
            step,
            seq: &(),
            tap: Some(taps),
        };
        walk::lane_pass(&self.config, self.rope.as_ref(), exec, lane, |pass| {
            walk::walk(pass, weights, tokens, &mut cache.blocks, scratch)
        })
    }

    /// Run the decoder stack for `tokens` at positions `start_pos..`,
    /// returning the hidden states `[n, hidden]` after the final norm.
    pub fn forward_step(
        &self,
        tokens: &[u32],
        start_pos: usize,
        step: usize,
        cache: &mut KvCache,
        taps: &mut TapList<'_>,
    ) -> Matrix {
        let mut scratch = DecodeScratch::new();
        let Ok(()) = self.forward_with(
            &mut Dense,
            &self.weights,
            tokens,
            start_pos,
            step,
            cache,
            taps,
            &mut scratch,
        );
        scratch.hidden
    }

    /// Logits for a single hidden-state row, with an explicit weight set,
    /// into a reusable buffer.
    pub(crate) fn logits_into(
        &self,
        weights: &ModelWeights,
        hidden_row: &Matrix,
        out: &mut Matrix,
    ) {
        weights
            .lm_head
            .forward_into(hidden_row, self.config.dtype, out);
    }

    /// Logits for a single hidden-state row.
    pub fn logits(&self, hidden_row: &Matrix) -> Vec<f32> {
        let mut l = Matrix::zeros(0, 0);
        self.logits_into(&self.weights, hidden_row, &mut l);
        l.row(0).to_vec()
    }

    /// Greedy generation: prefill on `prompt`, then decode `gen_tokens`
    /// tokens, firing `taps` at every linear-layer output.
    ///
    /// Step numbering matches the paper: step 0 (the prefill) *is* the
    /// first-token generation; steps `1..gen_tokens` produce the following
    /// tokens.
    pub fn generate(
        &self,
        prompt: &[u32],
        gen_tokens: usize,
        taps: &mut TapList<'_>,
    ) -> GenerationOutput {
        self.generate_with_recovery(prompt, gen_tokens, taps, RecoveryPolicy::disabled())
    }

    /// [`Model::generate`] with KV-snapshot token rollback: when the merged
    /// end-of-step verdict is [`AnomalyVerdict::Storm`], the KV cache is
    /// truncated back to its pre-step length, taps are told to escalate via
    /// [`crate::hooks::LayerTap::on_rollback`], and the token is re-decoded —
    /// up to `policy.max_retries` times per step before the step is accepted
    /// anyway and the run marked [`GenerationOutput::recovery_failed`].
    ///
    /// The prefill (step 0) is never rolled back: there are no profiled
    /// bounds yet to re-decode under, so a poisoned profiling pass is
    /// handled by the bound-integrity guards instead.
    pub fn generate_with_recovery(
        &self,
        prompt: &[u32],
        gen_tokens: usize,
        taps: &mut TapList<'_>,
        policy: RecoveryPolicy,
    ) -> GenerationOutput {
        let mut state = StateTapList::new();
        self.generate_resilient(prompt, gen_tokens, taps, &mut state, policy)
    }

    /// [`Model::generate_with_recovery`] plus stored-state taps: before and
    /// after every forward pass the registered [`crate::state::StateTap`]s
    /// run over a trial-owned working copy of the weights and the live KV
    /// cache (injectors corrupt, scrubbers/guards verify and repair). When a
    /// guard flags poisoned cache positions, the engine invalidates them and
    /// re-decodes the affected token range from the known token sequence —
    /// the same rollback machinery as storm recovery. When the retry budget
    /// is exhausted and `policy.repair` is set, the engine takes one
    /// repair-and-retry rung: a full state-repair sweep followed by one
    /// extra re-decode.
    ///
    /// With an empty `state` list this is byte-identical to
    /// [`Model::generate_with_recovery`]: no weight clone, no state passes.
    pub fn generate_resilient(
        &self,
        prompt: &[u32],
        gen_tokens: usize,
        taps: &mut TapList<'_>,
        state: &mut StateTapList<'_>,
        policy: RecoveryPolicy,
    ) -> GenerationOutput {
        self.generate_over(&mut Dense, prompt, gen_tokens, taps, state, policy)
    }

    /// The generation loop — the only one: every step (the prefill is step
    /// 0) snapshots the cache, runs one pass of the layer walk with its
    /// linears on `host`, lets the taps judge it, and either accepts the
    /// token or rolls the step back and climbs the [`Ladder`]. A pass that
    /// itself fails (only a fallible `host` has those) is rolled back the
    /// same way and handed to [`Host::pass_failed`]; when that ends the
    /// generation, the output holds the tokens accepted so far.
    pub(crate) fn generate_over<H: Host>(
        &self,
        host: &mut H,
        prompt: &[u32],
        gen_tokens: usize,
        taps: &mut TapList<'_>,
        state: &mut StateTapList<'_>,
        policy: RecoveryPolicy,
    ) -> GenerationOutput {
        assert!(!prompt.is_empty(), "empty prompt");
        assert!(
            prompt.len() + gen_tokens <= self.config.max_seq,
            "sequence exceeds max_seq ({} + {} > {})",
            prompt.len(),
            gen_tokens,
            self.config.max_seq
        );
        // Stored-state corruption needs a mutable working copy of the
        // weights; without state taps the checkpoint is read directly and
        // the clone is skipped entirely.
        let mut stored = (!state.is_empty()).then(|| StoredState {
            model: self,
            prompt,
            weights: self.weights.clone(),
            scrubbed_tiles: 0,
            weight_repairs: 0,
            kv_repairs: 0,
        });
        let mut cache = KvCache::new(&self.config);
        let mut scratch = DecodeScratch::new();
        let mut tokens: Vec<u32> = Vec::with_capacity(gen_tokens);
        let mut steps = Vec::with_capacity(gen_tokens);
        let mut rollbacks = 0u32;
        let mut storms = 0u32;
        let mut recovery_failed = false;
        let mut repair_retries = 0u32;
        let t0 = Instant::now();
        let mut first_token_at = None;

        'steps: for step in 0..gen_tokens {
            // Prefill == first-token generation (step 0): the whole prompt
            // from position 0. Every later step feeds the token before it.
            let (input, pos) = match tokens.last() {
                None => (prompt, 0),
                Some(last) => (std::slice::from_ref(last), prompt.len() + step - 1),
            };
            let snapshot = cache.len();
            // The prefill is never rolled back — it *is* the profiling
            // pass, there are no bounds yet to re-decode under — so its
            // ladder has nothing to grant.
            let retries = if step == 0 { 0 } else { policy.max_retries };
            // The repair rung exists only where something could repair.
            let mut ladder = Ladder::new(retries, retries > 0 && policy.repair && stored.is_some());
            let mut step_repairs = 0u32;
            let report = loop {
                // Pre-forward state pass: injectors strike, scrubbers and
                // guards verify — corruption is caught before this step's
                // forward pass reads it.
                if let Some(s) = stored.as_mut() {
                    let rep = state.on_step_state(&mut s.ctx(step, &mut cache));
                    step_repairs += s.absorb(rep, state, step, &tokens, snapshot, &mut cache);
                }
                host.before_pass(step);
                let wref = stored.as_ref().map_or(&self.weights, |s| &s.weights);
                let passed =
                    self.forward_with(host, wref, input, pos, step, &mut cache, taps, &mut scratch);
                host.after_pass(step);
                // Closes the pass for the taps whether or not it ran to its
                // end: an aborted pass's report is dropped with the pass.
                let report = taps.end_step(step);
                if let Some(s) = stored.as_mut() {
                    state.on_step_end(&mut s.ctx(step, &mut cache));
                }
                let failed = match passed {
                    Err(error) => Err(error),
                    Ok(()) if report.verdict != AnomalyVerdict::Storm => break report,
                    Ok(()) => {
                        storms += 1;
                        let rung = ladder.fail();
                        let (Rung::Retry { attempt } | Rung::Repair { attempt }) = rung else {
                            // Giving up here means accepting the storming
                            // token. A step that spent the re-decodes it
                            // was granted flags the generation; one that
                            // was granted none (a disabled policy, the
                            // prefill) never promised more.
                            recovery_failed |= retries > 0;
                            break report;
                        };
                        Ok((attempt, rung))
                    }
                };
                // A failed unit of either kind goes back to its snapshot
                // (a pass aborted mid-block may have appended K/V rows in
                // the blocks before it).
                cache.truncate(snapshot);
                state.notify_truncate(snapshot);
                let (attempt, rung) = match failed {
                    Ok(granted) => granted,
                    Err(error) => {
                        if host.pass_failed(step, error) {
                            continue;
                        }
                        break 'steps;
                    }
                };
                // The taps escalate on `attempt` and the step is re-decoded.
                taps.notify_rollback(step, attempt);
                state.notify_rollback(step, attempt);
                rollbacks += 1;
                if let (Rung::Repair { .. }, Some(s)) = (rung, stored.as_mut()) {
                    // A step still storming after escalated re-decodes
                    // points at persistent stored-state corruption: sweep
                    // and repair everything before the last re-decode.
                    let rep = state.on_repair(&mut s.ctx(step, &mut cache));
                    step_repairs += s.absorb(rep, state, step, &tokens, snapshot, &mut cache);
                    repair_retries += 1;
                }
            };
            // The LM head reads the pass's last row (the prefill has one
            // per prompt token).
            let rows = scratch.hidden.rows();
            let last = scratch.hidden.slice_rows(rows - 1, rows);
            let wref = stored.as_ref().map_or(&self.weights, |s| &s.weights);
            self.logits_into(wref, &last, &mut scratch.logits);
            let next = argmax(scratch.logits.row(0)) as u32;
            first_token_at.get_or_insert_with(Instant::now);
            steps.push(StepRecord {
                step,
                report,
                redecodes: ladder.spent(),
                repairs: step_repairs,
            });
            tokens.push(next);
        }
        // A generation that ended before its first token spent all its
        // time in the prefill.
        let end = Instant::now();
        let first = first_token_at.unwrap_or(end);

        let (scrubbed_tiles, weight_repairs, kv_repairs) = stored.map_or((0, 0, 0), |s| {
            (s.scrubbed_tiles, s.weight_repairs, s.kv_repairs)
        });
        GenerationOutput {
            tokens,
            prefill_ns: (first - t0).as_nanos() as u64,
            decode_ns: (end - first).as_nanos() as u64,
            steps,
            rollbacks,
            storms,
            recovery_failed,
            scrubbed_tiles,
            weight_repairs,
            kv_repairs,
            repair_retries,
        }
    }
}

/// What runs a generation's linears, and what it does around the passes of
/// [`Model::generate_over`]. Statically dispatched; for [`Dense`] every hook
/// is a no-op and a pass cannot fail.
pub(crate) trait Host: Exec {
    /// Before every run of `step`'s pass, re-runs included.
    fn before_pass(&mut self, _step: usize) {}

    /// After every run of `step`'s pass, accepted or aborted.
    fn after_pass(&mut self, _step: usize) {}

    /// `step`'s pass returned `error` and the cache is back at the step's
    /// snapshot. `true`: the host changed something, run the step again;
    /// `false`: the generation ends here.
    fn pass_failed(&mut self, step: usize, error: Self::Error) -> bool;
}

impl Host for Dense {
    fn pass_failed(&mut self, _step: usize, error: Infallible) -> bool {
        match error {}
    }
}

/// The stored-state side of one generation, present only when state taps
/// are registered: the trial-owned working copy of the weights they corrupt
/// and repair, and the totals of what their sweeps did.
struct StoredState<'a> {
    model: &'a Model,
    prompt: &'a [u32],
    weights: ModelWeights,
    scrubbed_tiles: u64,
    weight_repairs: u64,
    kv_repairs: u64,
}

impl StoredState<'_> {
    /// What the state taps are handed at `step`.
    fn ctx<'c>(&'c mut self, step: usize, cache: &'c mut KvCache) -> StateCtx<'c> {
        StateCtx {
            step,
            prompt_len: self.prompt.len(),
            weights: &mut self.weights,
            cache,
            golden: &self.model.weights,
            dtype: self.model.config.dtype,
        }
    }

    /// Act on a sweep's report: its counts join the totals, and when it
    /// flagged cache positions below `target` (the length the cache should
    /// have), positions `from..target` are rebuilt from the known tokens —
    /// the prompt, then `generated` — by truncating the poisoned suffix and
    /// re-running the forward pass over it with no taps. Returns the
    /// repairs made: tiles restored plus positions rebuilt.
    fn absorb(
        &mut self,
        rep: StateReport,
        state: &mut StateTapList<'_>,
        step: usize,
        generated: &[u32],
        target: usize,
        cache: &mut KvCache,
    ) -> u32 {
        self.scrubbed_tiles += rep.scrubbed_tiles;
        self.weight_repairs += rep.weight_repairs;
        let mut repairs = rep.weight_repairs as u32;
        if let Some(from) = rep.kv_invalid_from.filter(|&from| from < target) {
            cache.truncate(from);
            state.notify_truncate(from);
            let known: Vec<u32> = self
                .prompt
                .iter()
                .chain(generated)
                .copied()
                .skip(from)
                .take(target - from)
                .collect();
            // Cold path (runs only on fault recovery): fresh scratch is fine.
            let mut scratch = DecodeScratch::new();
            let mut no_taps = TapList::new();
            let Ok(()) = self.model.forward_with(
                &mut Dense,
                &self.weights,
                &known,
                from,
                step,
                cache,
                &mut no_taps,
                &mut scratch,
            );
            let rebuilt = (target - from) as u64;
            self.kv_repairs += rebuilt;
            repairs += rebuilt as u32;
        }
        repairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::hooks::{LayerTap, RecordingTap, TapCtx};

    #[test]
    fn generation_is_deterministic() {
        let model = Model::new(ModelConfig::tiny_opt());
        let prompt = [3u32, 14, 15, 92, 6];
        let mut taps = TapList::new();
        let a = model.generate(&prompt, 8, &mut taps);
        let b = model.generate(&prompt, 8, &mut taps);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.tokens.len(), 8);
        assert!(a
            .tokens
            .iter()
            .all(|&t| (t as usize) < model.config().vocab));
    }

    #[test]
    fn different_prompts_generate_different_outputs() {
        let model = Model::new(ModelConfig::tiny_llama());
        let mut taps = TapList::new();
        let a = model.generate(&[1, 2, 3, 4], 10, &mut taps);
        let b = model.generate(&[9, 8, 7, 6], 10, &mut taps);
        assert_ne!(a.tokens, b.tokens);
    }

    #[test]
    fn taps_fire_for_every_block_layer_and_step() {
        let config = ModelConfig::tiny_opt();
        let n_layers = config.block_layers().len();
        let n_blocks = config.blocks;
        let model = Model::new(config);
        let mut rec = RecordingTap::all();
        {
            let mut taps = TapList::new();
            taps.push(&mut rec);
            let _ = model.generate(&[5, 6, 7], 4, &mut taps);
        }
        // 4 steps (1 prefill + 3 decodes) × blocks × layers.
        assert_eq!(rec.captures.len(), 4 * n_blocks * n_layers);
        // Prefill captures have prompt_len rows; decode captures one row.
        let (c0, data0) = &rec.captures[0];
        assert_eq!(c0.step, 0);
        assert_eq!(data0.len() % 3, 0);
        let last = rec.captures.last().unwrap();
        assert_eq!(last.0.step, 3);
    }

    #[test]
    fn tap_mutations_change_hidden_states() {
        // A tap that wipes V_PROJ outputs must change the computed hidden
        // states — proving taps intercept the real dataflow. (Generated
        // *tokens* may coincide: greedy decoding is robust by design.)
        struct Wipe;
        impl LayerTap for Wipe {
            fn on_output(&mut self, ctx: &TapCtx, data: &mut ft2_tensor::Matrix) {
                if ctx.point.layer == crate::config::LayerKind::VProj {
                    for v in data.as_mut_slice() {
                        *v = 0.0;
                    }
                }
            }
        }
        let model = Model::new(ModelConfig::tiny_opt());
        let prompt = [3u32, 14, 15, 92, 6, 33, 21];
        let mut clean_taps = TapList::new();
        let mut cache = KvCache::new(model.config());
        let clean = model.forward_step(&prompt, 0, 0, &mut cache, &mut clean_taps);

        let mut wipe = Wipe;
        let mut taps = TapList::new();
        taps.push(&mut wipe);
        let mut cache2 = KvCache::new(model.config());
        let wiped = model.forward_step(&prompt, 0, 0, &mut cache2, &mut taps);
        assert!(clean.max_abs_diff(&wiped) > 1e-4);
    }

    #[test]
    fn prefill_and_decode_timings_are_recorded() {
        let model = Model::new(ModelConfig::tiny_llama());
        let mut taps = TapList::new();
        let out = model.generate(&[1, 2, 3, 4, 5, 6, 7, 8], 16, &mut taps);
        assert!(out.prefill_ns > 0);
        assert!(out.decode_ns > 0);
        let share = out.first_token_time_share();
        assert!(share > 0.0 && share < 1.0);
    }

    #[test]
    #[should_panic]
    fn overlong_sequence_panics() {
        let model = Model::new(ModelConfig::tiny_opt());
        let mut taps = TapList::new();
        let prompt: Vec<u32> = (0..60).collect();
        let _ = model.generate(&prompt, 10, &mut taps);
    }

    /// Corrupts one decode step's V_PROJ output and storms until rolled
    /// back `heal_after` times — a stand-in for a transient fault plus a
    /// detector (the injector's `fired` flag gives real faults the same
    /// "clean on re-decode" shape).
    struct TransientStorm {
        target_step: usize,
        heal_after: u32,
        attempts: u32,
        stormed_this_step: bool,
    }

    impl TransientStorm {
        fn at(target_step: usize, heal_after: u32) -> Self {
            TransientStorm {
                target_step,
                heal_after,
                attempts: 0,
                stormed_this_step: false,
            }
        }
    }

    impl LayerTap for TransientStorm {
        fn on_output(&mut self, ctx: &TapCtx, data: &mut ft2_tensor::Matrix) {
            if ctx.step == self.target_step
                && ctx.point.layer == crate::config::LayerKind::VProj
                && ctx.point.block == 0
                && self.attempts < self.heal_after
            {
                for v in data.as_mut_slice() {
                    *v += 1.0e3;
                }
                self.stormed_this_step = true;
            }
        }
        fn end_step(&mut self, _step: usize) -> StepReport {
            let verdict = if self.stormed_this_step {
                AnomalyVerdict::Storm
            } else {
                AnomalyVerdict::Clean
            };
            self.stormed_this_step = false;
            StepReport {
                verdict,
                ..StepReport::default()
            }
        }
        fn on_rollback(&mut self, _step: usize, _attempt: u32) {
            self.attempts += 1;
        }
    }

    #[test]
    fn rollback_recovers_clean_tokens_after_transient_storm() {
        let model = Model::new(ModelConfig::tiny_llama());
        let prompt = [4u32, 9, 16, 25];
        let mut clean_taps = TapList::new();
        let clean = model.generate(&prompt, 8, &mut clean_taps);

        // Corrupt step 3 once; one rollback re-decodes it cleanly.
        let mut storm = TransientStorm::at(3, 1);
        let mut taps = TapList::new();
        taps.push(&mut storm);
        let out = model.generate_with_recovery(&prompt, 8, &mut taps, RecoveryPolicy::retries(2));
        assert_eq!(out.tokens, clean.tokens);
        assert_eq!(out.rollbacks, 1);
        assert_eq!(out.storms, 1);
        assert!(!out.recovery_failed);
        assert_eq!(out.steps.len(), 8);
        assert_eq!(out.steps[3].redecodes, 1);
        assert_eq!(out.steps[3].report.verdict, AnomalyVerdict::Clean);
    }

    #[test]
    fn disabled_policy_accepts_storming_step_without_failure_flag() {
        let model = Model::new(ModelConfig::tiny_llama());
        let prompt = [4u32, 9, 16, 25];
        let mut storm = TransientStorm::at(3, u32::MAX);
        let mut taps = TapList::new();
        taps.push(&mut storm);
        let out = model.generate_with_recovery(&prompt, 8, &mut taps, RecoveryPolicy::disabled());
        // The storm is recorded, but with rollback disabled the token is
        // accepted and the run is not marked recovery-failed.
        assert_eq!(out.rollbacks, 0);
        assert_eq!(out.storms, 1);
        assert!(!out.recovery_failed);
        assert_eq!(out.steps[3].report.verdict, AnomalyVerdict::Storm);
    }

    #[test]
    fn exhausted_retries_mark_recovery_failed() {
        let model = Model::new(ModelConfig::tiny_llama());
        let prompt = [4u32, 9, 16, 25];
        // Storms persist through every re-decode of step 2.
        let mut storm = TransientStorm::at(2, u32::MAX);
        let mut taps = TapList::new();
        taps.push(&mut storm);
        let out = model.generate_with_recovery(&prompt, 8, &mut taps, RecoveryPolicy::retries(2));
        assert_eq!(out.rollbacks, 2);
        assert_eq!(out.storms, 3); // initial attempt + two re-decodes
        assert!(out.recovery_failed);
        assert_eq!(out.steps[2].redecodes, 2);
        assert_eq!(out.steps[2].report.verdict, AnomalyVerdict::Storm);
    }

    #[test]
    fn recovery_disabled_matches_plain_generate() {
        let model = Model::new(ModelConfig::tiny_opt());
        let prompt = [3u32, 14, 15, 92, 6];
        let mut taps_a = TapList::new();
        let a = model.generate(&prompt, 8, &mut taps_a);
        let mut taps_b = TapList::new();
        let b = model.generate_with_recovery(&prompt, 8, &mut taps_b, RecoveryPolicy::disabled());
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.rollbacks, 0);
        assert_eq!(b.steps.len(), 8);
        assert!(b
            .steps
            .iter()
            .all(|s| s.report.verdict == AnomalyVerdict::Clean));
    }

    #[test]
    fn hidden_states_are_finite_in_clean_runs() {
        let model = Model::new(ModelConfig::tiny_llama());
        let mut cache = KvCache::new(model.config());
        let mut taps = TapList::new();
        let h = model.forward_step(&[1, 2, 3, 4, 5], 0, 0, &mut cache, &mut taps);
        assert!(!h.has_nan());
        assert!(h.as_slice().iter().all(|v| v.is_finite()));
    }
}
