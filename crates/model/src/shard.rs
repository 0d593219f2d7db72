//! Sharded (tensor-parallel) execution with fault-isolation domains.
//!
//! This module partitions a model's block linears across `N` logical
//! shards — each standing in for one GPU of a tensor-parallel replica —
//! and executes them on [`WorkStealingPool`] workers while the driver
//! thread keeps everything a real TP rank replicates (embeddings, norms,
//! attention softmax, the LM head). The partition map is the Megatron
//! layout:
//!
//! * **Column-sharded** (`K/Q/V_PROJ` by head range, `FC1`/`GATE`/`UP` by
//!   ffn range): each shard owns a slice of *output* features and computes
//!   its slice over the full input — per-element arithmetic is identical
//!   to the unsharded kernel, so the gathered result is bit-exact for any
//!   shard count.
//! * **Row-sharded** (`OUT_PROJ` by head range, `FC2`/`DOWN` by ffn
//!   range): each shard owns a slice of *input* features and produces a
//!   partial product; the partials meet at the all-reduce seam
//!   ([`ft2_tensor::reduce_seam_into`]), which accumulates in `f64` so the
//!   reduced value is stable across shard counts (see `ft2-tensor::seam`).
//!
//! Every shard is its own **failure domain**. Shard-scoped faults surface
//! in three shapes — a worker panic (crash), a stale heartbeat (hang,
//! cancelled by [`HeartbeatMonitor`] within the heartbeat interval rather
//! than the trial deadline), or an anomalous partial (weight/activation
//! corruption) — and are handled by a shard-granular recovery ladder. Its
//! first two rungs are one [`Ladder`] per linear (the unit is one linear's
//! fan-out); the third is what the fan-out, as the [`Host`] of the engine's
//! generation loop, does about a pass that failed:
//!
//! 1. **Re-execute** the failed shards' partial GEMMs, once whenever the
//!    policy is enabled: transient faults are gone on retry.
//! 2. **Repair** ([`RecoveryPolicy::repair`]): run the registered
//!    [`ShardTap`] repair sweep (a scrubber restores corrupted weight tiles
//!    from its golden copy), then re-execute — the persistent-fault rung.
//! 3. **Degrade** ([`RecoveryPolicy::shard_degrade`]): evict the dead
//!    shard, re-partition the checkpoint onto the survivors, roll the step
//!    back, and keep generating. Availability is preserved at the cost of
//!    bounded token drift (the re-partitioned reduce seam sums in a
//!    different slice order), reported as a degrade event — never
//!    silently.
//!
//! Without the degrade rung, an unrecoverable shard failure ends the
//! generation with [`ShardedGeneration::failed`] set — a detected,
//! shard-scoped DUE.
//!
//! There is no sharded generation loop: [`ShardedModel::generate_tapped`]
//! runs the engine's (`Model::generate_over`) with the fan-out as its host,
//! so the lane carries the caller's [`TapList`] — FT2's bounds are profiled
//! and clamped on each linear's gathered, quantised output after the seam —
//! and the Storm → rollback ladder and [`StepRecord`]s are the engine's.

use crate::config::{LayerKind, ModelConfig};
use crate::engine::{Host, Model, RecoveryPolicy, StepRecord};
use crate::hooks::{TapList, TapPoint};
use crate::ladder::{Ladder, Rung};
use crate::state::{StateReport, StateTapList};
use crate::walk::Exec;
use crate::weights::{Linear, ModelWeights};
use ft2_parallel::{lock_clean, HeartbeatMonitor, ShardHeartbeat, WorkStealingPool};
use ft2_tensor::{matmul_transb_cols_f64, matmul_transb_into, reduce_seam_into, DType, Matrix};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A partial whose magnitude exceeds this (or is non-finite) is flagged
/// anomalous by the post-gather check. Healthy activations on the
/// simulator's checkpoints stay below ~1e3; injected corruption scales
/// values by ≥1e6, so the two populations are cleanly separable.
const PARTIAL_ANOMALY_ABS: f64 = 1e8;

/// Re-executions of a linear's failed partials under an enabled policy,
/// before the repair rung: one, the transient-fault assumption of the
/// rollback rung.
const SHARD_REEXECS: u32 = 1;

/// Fallback timeout for an injected hang: if the heartbeat monitor never
/// cancels the shard (it always should), the spinning task aborts itself
/// after this long so a test can never deadlock the pool.
const HANG_FALLBACK: Duration = Duration::from_secs(5);

/// A half-open index range `[start, end)` of heads or ffn features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First index of the range.
    pub start: usize,
    /// One past the last index.
    pub end: usize,
}

impl Span {
    /// Number of indices covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the span covers nothing (a shard count larger than the
    /// sharded dimension leaves trailing shards empty).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Split `total` indices into `parts` contiguous spans whose lengths
/// differ by at most one (the first `total % parts` spans get the extra
/// element). `parts > total` yields trailing empty spans.
pub fn balanced_spans(total: usize, parts: usize) -> Vec<Span> {
    let parts = parts.max(1);
    let base = total / parts;
    let extra = total % parts;
    let mut spans = Vec::with_capacity(parts);
    let mut lo = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        spans.push(Span {
            start: lo,
            end: lo + len,
        });
        lo += len;
    }
    spans
}

/// The partition map of one shard count: which heads and which ffn
/// features each shard owns.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of shards.
    pub shards: usize,
    /// Attention-head span per shard (Q/K/V outputs, OUT_PROJ inputs).
    pub head_spans: Vec<Span>,
    /// Ffn-feature span per shard (FC1/GATE/UP outputs, FC2/DOWN inputs).
    pub ffn_spans: Vec<Span>,
    /// Per-head feature width.
    pub head_dim: usize,
}

impl ShardPlan {
    /// Partition map for `n` shards of a model configuration. Head counts
    /// that do not divide `n` are balanced (spans differ by one head);
    /// `n` larger than the head count leaves trailing shards with no
    /// attention slice (they still carry an ffn slice when possible).
    pub fn new(config: &ModelConfig, n: usize) -> ShardPlan {
        let n = n.max(1);
        ShardPlan {
            shards: n,
            head_spans: balanced_spans(config.heads, n),
            ffn_spans: balanced_spans(config.ffn, n),
            head_dim: config.head_dim(),
        }
    }

    /// The hidden-feature columns shard `s` owns (its head span scaled by
    /// `head_dim`): output rows of its Q/K/V slices and input columns of
    /// its OUT_PROJ slice.
    pub fn col_span(&self, s: usize) -> Span {
        Span {
            start: self.head_spans[s].start * self.head_dim,
            end: self.head_spans[s].end * self.head_dim,
        }
    }

    /// The feature span shard `s` owns for `layer`: output rows under
    /// column sharding, input columns under row sharding.
    fn span(&self, s: usize, layer: LayerKind) -> Span {
        match layer {
            LayerKind::KProj | LayerKind::QProj | LayerKind::VProj | LayerKind::OutProj => {
                self.col_span(s)
            }
            _ => self.ffn_spans[s],
        }
    }

    /// Slice a full weight set into per-shard weights (deterministic,
    /// bit-preserving copies).
    pub fn partition(&self, config: &ModelConfig, weights: &ModelWeights) -> Vec<ShardWeights> {
        (0..self.shards)
            .map(|s| {
                let col = self.col_span(s);
                let ffn = self.ffn_spans[s];
                let blocks = weights
                    .blocks
                    .iter()
                    .map(|bw| {
                        let fc = bw
                            .fc
                            .as_ref()
                            .map(|(fc1, fc2)| (rows_slice(fc1, ffn), cols_slice(fc2, ffn, s == 0)));
                        let gated = bw.gated.as_ref().map(|(gate, up, down)| {
                            (
                                rows_slice(gate, ffn),
                                rows_slice(up, ffn),
                                cols_slice(down, ffn, s == 0),
                            )
                        });
                        ShardBlockWeights {
                            k_proj: rows_slice(&bw.k_proj, col),
                            q_proj: rows_slice(&bw.q_proj, col),
                            v_proj: rows_slice(&bw.v_proj, col),
                            out_proj: cols_slice(&bw.out_proj, col, s == 0),
                            fc,
                            gated,
                        }
                    })
                    .collect();
                let _ = config;
                ShardWeights {
                    shard: s,
                    head_span: self.head_spans[s],
                    ffn_span: ffn,
                    blocks,
                }
            })
            .collect()
    }

    /// Overwrite `shards` — a partition this plan made of a weight set of
    /// the same shape — with what [`ShardPlan::partition`] would make of
    /// `weights` now, in the buffers they already have.
    fn refresh(&self, config: &ModelConfig, weights: &ModelWeights, shards: &mut [ShardWeights]) {
        assert_eq!(shards.len(), self.shards, "shard count mismatch");
        for (s, sw) in shards.iter_mut().enumerate() {
            for (bw, sb) in weights.blocks.iter().zip(&mut sw.blocks) {
                for &kind in config.block_layers() {
                    let lin = bw.layer(kind).expect("block layer of this architecture");
                    let slice = sb
                        .layer_mut(kind)
                        .expect("sharded layer of this architecture");
                    let span = self.span(s, kind);
                    match seam_mode(kind) {
                        SeamMode::Col => {
                            let cols = lin.weight.cols();
                            slice.weight.as_mut_slice().copy_from_slice(
                                &lin.weight.as_slice()[span.start * cols..span.end * cols],
                            );
                            if let (Some(dst), Some(b)) = (slice.bias.as_mut(), lin.bias.as_ref()) {
                                dst.copy_from_slice(&b[span.start..span.end]);
                            }
                        }
                        SeamMode::Row => {
                            copy_cols(&lin.weight, span, &mut slice.weight);
                            // Only shard 0 keeps a row-sharded bias.
                            if let (Some(dst), Some(b)) = (slice.bias.as_mut(), lin.bias.as_ref()) {
                                dst.copy_from_slice(b);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Write the sharded block linears back into `target` — the inverse of
    /// [`ShardPlan::partition`]. Only block linears are touched (norms,
    /// embeddings and the LM head are replicated on the driver and never
    /// sharded). Row-sharded biases are restored from shard 0, which is
    /// the shard that keeps them.
    pub fn reassemble_into(&self, shards: &[ShardWeights], target: &mut ModelWeights) {
        assert_eq!(shards.len(), self.shards, "shard count mismatch");
        for (s, sw) in shards.iter().enumerate() {
            let col = self.col_span(s);
            let ffn = self.ffn_spans[s];
            for (bw, sb) in target.blocks.iter_mut().zip(&sw.blocks) {
                write_rows(&mut bw.k_proj, &sb.k_proj, col);
                write_rows(&mut bw.q_proj, &sb.q_proj, col);
                write_rows(&mut bw.v_proj, &sb.v_proj, col);
                write_cols(&mut bw.out_proj, &sb.out_proj, col, s == 0);
                if let (Some((fc1, fc2)), Some((s1, s2))) = (bw.fc.as_mut(), sb.fc.as_ref()) {
                    write_rows(fc1, s1, ffn);
                    write_cols(fc2, s2, ffn, s == 0);
                }
                if let (Some((g, u, d)), Some((sg, su, sd))) =
                    (bw.gated.as_mut(), sb.gated.as_ref())
                {
                    write_rows(g, sg, ffn);
                    write_rows(u, su, ffn);
                    write_cols(d, sd, ffn, s == 0);
                }
            }
        }
    }
}

/// Output-row slice of a linear (column sharding): the shard owns output
/// features `span` with their bias entries.
fn rows_slice(lin: &Linear, span: Span) -> Linear {
    Linear {
        weight: lin.weight.slice_rows(span.start, span.end),
        bias: lin.bias.as_ref().map(|b| b[span.start..span.end].to_vec()),
    }
}

/// Input-column slice of a linear (row sharding): the shard owns input
/// features `span`; the bias is applied once after the reduce seam, so
/// only shard 0 keeps it.
fn cols_slice(lin: &Linear, span: Span, keep_bias: bool) -> Linear {
    let mut weight = Matrix::zeros(lin.weight.rows(), span.len());
    copy_cols(&lin.weight, span, &mut weight);
    Linear {
        weight,
        bias: if keep_bias { lin.bias.clone() } else { None },
    }
}

/// Copy columns `span` of `full` over `slice` (`[full.rows(), span.len()]`).
fn copy_cols(full: &Matrix, span: Span, slice: &mut Matrix) {
    for r in 0..full.rows() {
        slice
            .row_mut(r)
            .copy_from_slice(&full.row(r)[span.start..span.end]);
    }
}

fn write_rows(target: &mut Linear, shard: &Linear, span: Span) {
    for r in 0..span.len() {
        target
            .weight
            .row_mut(span.start + r)
            .copy_from_slice(shard.weight.row(r));
    }
    if let (Some(tb), Some(sb)) = (target.bias.as_mut(), shard.bias.as_ref()) {
        tb[span.start..span.end].copy_from_slice(sb);
    }
}

fn write_cols(target: &mut Linear, shard: &Linear, span: Span, restore_bias: bool) {
    for r in 0..target.weight.rows() {
        target.weight.row_mut(r)[span.start..span.end].copy_from_slice(shard.weight.row(r));
    }
    if restore_bias {
        if let (Some(tb), Some(sb)) = (target.bias.as_mut(), shard.bias.as_ref()) {
            tb.copy_from_slice(sb);
        }
    }
}

/// One decoder block's weight slices on one shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardBlockWeights {
    /// Key-projection output-row slice.
    pub k_proj: Linear,
    /// Query-projection output-row slice.
    pub q_proj: Linear,
    /// Value-projection output-row slice.
    pub v_proj: Linear,
    /// Attention-output input-column slice (bias on shard 0 only).
    pub out_proj: Linear,
    /// OPT-style MLP slices: (FC1 rows, FC2 columns).
    pub fc: Option<(Linear, Linear)>,
    /// Llama-style MLP slices: (gate rows, up rows, down columns).
    pub gated: Option<(Linear, Linear, Linear)>,
}

impl ShardBlockWeights {
    /// The slice of the given layer kind, if this architecture has it.
    pub fn layer(&self, kind: LayerKind) -> Option<&Linear> {
        match kind {
            LayerKind::KProj => Some(&self.k_proj),
            LayerKind::QProj => Some(&self.q_proj),
            LayerKind::VProj => Some(&self.v_proj),
            LayerKind::OutProj => Some(&self.out_proj),
            LayerKind::Fc1 => self.fc.as_ref().map(|(a, _)| a),
            LayerKind::Fc2 => self.fc.as_ref().map(|(_, b)| b),
            LayerKind::GateProj => self.gated.as_ref().map(|(g, _, _)| g),
            LayerKind::UpProj => self.gated.as_ref().map(|(_, u, _)| u),
            LayerKind::DownProj => self.gated.as_ref().map(|(_, _, d)| d),
        }
    }

    /// Mutable access to the slice of the given layer kind (fault
    /// injection and integrity repair).
    pub fn layer_mut(&mut self, kind: LayerKind) -> Option<&mut Linear> {
        match kind {
            LayerKind::KProj => Some(&mut self.k_proj),
            LayerKind::QProj => Some(&mut self.q_proj),
            LayerKind::VProj => Some(&mut self.v_proj),
            LayerKind::OutProj => Some(&mut self.out_proj),
            LayerKind::Fc1 => self.fc.as_mut().map(|(a, _)| a),
            LayerKind::Fc2 => self.fc.as_mut().map(|(_, b)| b),
            LayerKind::GateProj => self.gated.as_mut().map(|(g, _, _)| g),
            LayerKind::UpProj => self.gated.as_mut().map(|(_, u, _)| u),
            LayerKind::DownProj => self.gated.as_mut().map(|(_, _, d)| d),
        }
    }
}

/// One shard's complete weight slices.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardWeights {
    /// Shard index under the current partition.
    pub shard: usize,
    /// Attention heads this shard owns.
    pub head_span: Span,
    /// Ffn features this shard owns.
    pub ffn_span: Span,
    /// Per-block weight slices.
    pub blocks: Vec<ShardBlockWeights>,
}

/// What a worker task is told to do for one partial — queried from the
/// taps before each dispatch, which is how shard-scoped crash and hang
/// faults enter the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskDirective {
    /// Execute the partial normally.
    Proceed,
    /// Panic immediately — an injected shard crash (XID-style fatal
    /// error).
    Crash,
    /// Stop beating and spin until the heartbeat monitor cancels the
    /// shard — an injected shard hang.
    Hang,
}

/// Where in the forward pass a partial was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPartialCtx {
    /// Generation step (0 = prefill).
    pub step: usize,
    /// Decoder block index.
    pub block: usize,
    /// Linear layer the partial belongs to.
    pub layer: LayerKind,
    /// Shard that produced it.
    pub shard: usize,
}

/// Mutable view of one shard's partial, handed to [`ShardTap::on_partial`]
/// (activation-level fault injection mutates it in place).
pub enum PartialMut<'a> {
    /// Column-sharded output slice `[n, span]`.
    F32(&'a mut Matrix),
    /// Row-sharded `f64` partial, length `n × out`.
    F64(&'a mut [f64]),
}

/// The shard taps' name for [`StateReport`], kept so taps written against
/// it still compile: shard taps and state taps return the one report type
/// (`kv_invalid_from` stays `None` here).
pub use crate::state::StateReport as ShardStateReport;

/// Scope of one repair rung. A shard's partial GEMM reads exactly one
/// `(block, layer)` weight slice, so an anomalous partial implicates
/// exactly that slice on the suspect shards — stored-state repair only
/// needs to verify those tiles, which is what keeps the rung orders of
/// magnitude cheaper than a full restart.
#[derive(Clone, Copy, Debug)]
pub struct RepairScope<'a> {
    /// Shards whose partials failed (empty = every shard is suspect).
    pub suspects: &'a [usize],
    /// Decoder block of the failing GEMMs.
    pub block: usize,
    /// The weight slice the failing GEMMs were reading.
    pub layer: LayerKind,
}

/// Observer/actor interface of the sharded executor. Fault injectors and
/// integrity scrubbers implement this; `ft2-model` defines only the
/// mechanism so upper crates can supply policy without a dependency
/// cycle.
pub trait ShardTap {
    /// Called before each step's forward pass with mutable access to every
    /// shard's weights (injectors corrupt, scrubbers verify/repair).
    fn on_step_start(&mut self, step: usize, shards: &mut [ShardWeights]) -> StateReport {
        let _ = (step, shards);
        StateReport::default()
    }

    /// Queried immediately before dispatching one shard's partial GEMM.
    fn directive(
        &mut self,
        step: usize,
        block: usize,
        layer: LayerKind,
        shard: usize,
    ) -> TaskDirective {
        let _ = (step, block, layer, shard);
        TaskDirective::Proceed
    }

    /// Called with each successfully computed partial (before the anomaly
    /// check and the gather), with mutable access for injection.
    fn on_partial(&mut self, ctx: &ShardPartialCtx, data: PartialMut<'_>) {
        let _ = (ctx, data);
    }

    /// The repair rung: verify and restore the weight slice implicated by
    /// the failing GEMMs (see [`RepairScope`]). Scoping the sweep to the
    /// failing isolation domains' implicated slice is what keeps a repair
    /// orders of magnitude cheaper than a full restart. Returns the work
    /// done.
    fn on_repair(&mut self, scope: &RepairScope<'_>, shards: &mut [ShardWeights]) -> StateReport {
        let _ = (scope, shards);
        StateReport::default()
    }

    /// Called after each step's forward pass (accepted or aborted).
    fn on_step_end(&mut self, step: usize) {
        let _ = step;
    }

    /// Called after a degrade re-partition with the survivors' fresh
    /// weights. Scrubbers re-baseline; injectors targeting the evicted
    /// shard go inert (the faulty "GPU" left the replica).
    fn on_repartition(&mut self, shards: &[ShardWeights]) {
        let _ = shards;
    }
}

/// An ordered list of [`ShardTap`]s sharing the executor's hook points.
#[derive(Default)]
pub struct ShardTapList<'a> {
    taps: Vec<&'a mut dyn ShardTap>,
}

impl<'a> ShardTapList<'a> {
    /// Empty list.
    pub fn new() -> Self {
        ShardTapList::default()
    }

    /// Append a tap (fires after the ones already registered).
    pub fn push(&mut self, tap: &'a mut dyn ShardTap) {
        self.taps.push(tap);
    }

    /// True when no taps are registered.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    fn on_step_start(&mut self, step: usize, shards: &mut [ShardWeights]) -> StateReport {
        let mut merged = StateReport::default();
        for t in &mut self.taps {
            merged.merge(&t.on_step_start(step, shards));
        }
        merged
    }

    fn directive(
        &mut self,
        step: usize,
        block: usize,
        layer: LayerKind,
        shard: usize,
    ) -> TaskDirective {
        for t in &mut self.taps {
            let d = t.directive(step, block, layer, shard);
            if d != TaskDirective::Proceed {
                return d;
            }
        }
        TaskDirective::Proceed
    }

    fn on_partial(&mut self, ctx: &ShardPartialCtx, data: &mut PartialMut<'_>) {
        for t in &mut self.taps {
            match data {
                PartialMut::F32(m) => t.on_partial(ctx, PartialMut::F32(m)),
                PartialMut::F64(p) => t.on_partial(ctx, PartialMut::F64(p)),
            }
        }
    }

    fn on_repair(&mut self, scope: &RepairScope<'_>, shards: &mut [ShardWeights]) -> StateReport {
        let mut merged = StateReport::default();
        for t in &mut self.taps {
            merged.merge(&t.on_repair(scope, shards));
        }
        merged
    }

    fn on_step_end(&mut self, step: usize) {
        for t in &mut self.taps {
            t.on_step_end(step);
        }
    }

    /// Notify every tap of a re-partition (public so callers that
    /// re-partition out-of-band — e.g. a full-restart baseline — can keep
    /// their taps coherent).
    pub fn on_repartition(&mut self, shards: &[ShardWeights]) {
        for t in &mut self.taps {
            t.on_repartition(shards);
        }
    }
}

/// How a shard failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardIncidentKind {
    /// The worker task panicked.
    Crash,
    /// The heartbeat monitor cancelled a stale shard.
    Hang,
    /// The shard's partial failed the anomaly check after the re-execute
    /// and repair rungs.
    Anomaly,
}

impl ShardIncidentKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShardIncidentKind::Crash => "crash",
            ShardIncidentKind::Hang => "hang",
            ShardIncidentKind::Anomaly => "anomaly",
        }
    }
}

/// A shard failure the per-linear ladder could not absorb, escalated to
/// the step loop (degrade or fail).
#[derive(Clone, Copy, Debug)]
struct ShardIncident {
    shard: usize,
    kind: ShardIncidentKind,
}

/// A degrade event: one shard evicted, the step re-run on the survivors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Step during which the shard was evicted.
    pub step: usize,
    /// Shard index (under the partition in force at the time).
    pub shard: usize,
    /// Failure that triggered the eviction.
    pub kind: ShardIncidentKind,
}

/// Terminal shard failure of a generation that could not degrade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// Step at which the generation stopped.
    pub step: usize,
    /// Failed shard.
    pub shard: usize,
    /// Failure kind.
    pub kind: ShardIncidentKind,
}

/// Result of one sharded generation.
#[derive(Clone, Debug, Default)]
pub struct ShardedGeneration {
    /// Generated tokens (all `gen_tokens` of them unless
    /// [`ShardedGeneration::failed`] is set).
    pub tokens: Vec<u32>,
    /// What the lane taps reported per accepted step, as
    /// [`crate::engine::GenerationOutput::steps`].
    pub steps: Vec<StepRecord>,
    /// Token rollbacks the lane taps' storm verdicts caused.
    pub rollbacks: u32,
    /// Storm verdicts of the lane taps, including ones a rollback cleared.
    pub tap_storms: u32,
    /// A step exhausted its retry budget while its lane taps still stormed.
    pub recovery_failed: bool,
    /// Shards alive at the end of the generation.
    pub shards: usize,
    /// Shards evicted by the degrade rung.
    pub shards_lost: u32,
    /// One entry per eviction, in order.
    pub degrade_events: Vec<DegradeEvent>,
    /// Shard partial re-executions (the transient-fault rung).
    pub shard_retries: u32,
    /// Anomalous partials detected (including ones cleared by a retry or
    /// repair).
    pub storms: u32,
    /// Repair rungs taken (full scrub-and-restore sweeps).
    pub repair_rungs: u32,
    /// Weight tiles re-verified by scrubbing taps.
    pub scrubbed_tiles: u64,
    /// Weight tiles found corrupted and restored.
    pub tiles_repaired: u64,
    /// Wall-clock nanoseconds spent in repair sweeps plus their
    /// re-executions (the "shard repair time" the harness compares against
    /// a full restart).
    pub repair_ns: u64,
    /// Set when the generation ended early on an unrecoverable shard
    /// failure (a detected, shard-scoped DUE).
    pub failed: Option<ShardFailure>,
    /// Wall-clock time of the prefill step, nanoseconds.
    pub prefill_ns: u64,
    /// Wall-clock time of all decode steps, nanoseconds.
    pub decode_ns: u64,
}

impl ShardedGeneration {
    /// True when every requested token was produced.
    pub fn completed(&self) -> bool {
        self.failed.is_none()
    }
}

/// Which side of the partition a layer lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SeamMode {
    /// Output features sharded; gather is a concatenation.
    Col,
    /// Input features sharded; gather is the f64 all-reduce seam.
    Row,
}

fn seam_mode(layer: LayerKind) -> SeamMode {
    match layer {
        LayerKind::KProj
        | LayerKind::QProj
        | LayerKind::VProj
        | LayerKind::Fc1
        | LayerKind::GateProj
        | LayerKind::UpProj => SeamMode::Col,
        LayerKind::OutProj | LayerKind::Fc2 | LayerKind::DownProj => SeamMode::Row,
    }
}

/// Per-shard output buffers, behind mutexes so pool workers can write
/// them through a shared reference (a shard's buffer is only ever touched
/// by its own task within one dispatch).
#[derive(Default)]
struct ShardBuf {
    dense: Mutex<Matrix>,
    partial: Mutex<Vec<f64>>,
}

/// The lists one linear's fan-out works through, kept between linears so
/// the fault-free path allocates nothing.
#[derive(Default)]
struct FanoutScratch {
    /// Shards whose partial is still to be computed by the next dispatch.
    pending: Vec<usize>,
    /// The taps' directive for each pending shard.
    directives: Vec<TaskDirective>,
    /// First input column of each pending shard's slice (row sharding).
    col_los: Vec<usize>,
    /// The row-sharded partials, in shard order, while the seam reduces
    /// them.
    parts: Vec<Vec<f64>>,
}

/// A model partitioned across `N` logical shards, executable on a worker
/// pool with shard-granular fault isolation and recovery.
pub struct ShardedModel<'m> {
    model: &'m Model,
    initial_shards: usize,
    plan: ShardPlan,
    weights: Vec<ShardWeights>,
    bufs: Vec<ShardBuf>,
    scratch: FanoutScratch,
}

impl<'m> ShardedModel<'m> {
    /// Partition `model` across `n` shards (clamped to at least 1).
    pub fn new(model: &'m Model, n: usize) -> ShardedModel<'m> {
        let n = n.max(1);
        let plan = ShardPlan::new(model.config(), n);
        let weights = plan.partition(model.config(), model.weights());
        let bufs = (0..n).map(|_| ShardBuf::default()).collect();
        ShardedModel {
            model,
            initial_shards: n,
            plan,
            weights,
            bufs,
            scratch: FanoutScratch::default(),
        }
    }

    /// The underlying (golden) model.
    pub fn model(&self) -> &'m Model {
        self.model
    }

    /// Current partition map.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Current per-shard weights (scrubbers baseline their golden copies
    /// and checksums from this).
    pub fn shards(&self) -> &[ShardWeights] {
        &self.weights
    }

    /// Shards alive under the current partition.
    pub fn alive(&self) -> usize {
        self.weights.len()
    }

    /// Restore the initial partition from the golden checkpoint (also run
    /// at the start of every generation, so injected weight corruption
    /// never leaks across generations). Unless a degrade changed the plan,
    /// the shards' buffers are overwritten where they are: a copy, with no
    /// allocation and no second partition alive beside the first.
    pub fn reset(&mut self) {
        let (config, golden) = (self.model.config(), self.model.weights());
        if self.plan.shards == self.initial_shards {
            self.plan.refresh(config, golden, &mut self.weights);
        } else {
            self.plan = ShardPlan::new(config, self.initial_shards);
            self.repartition();
        }
    }

    fn repartition(&mut self) {
        self.weights = self
            .plan
            .partition(self.model.config(), self.model.weights());
        self.bufs = (0..self.plan.shards).map(|_| ShardBuf::default()).collect();
    }

    fn degrade(&mut self) {
        let survivors = self.weights.len().saturating_sub(1).max(1);
        self.plan = ShardPlan::new(self.model.config(), survivors);
        self.repartition();
    }

    /// Dispatch the partial GEMMs of the pending shards for one linear,
    /// each under its directive, and return the shards that failed (crash
    /// or hang), in discovery order.
    fn exec(
        &mut self,
        pool: &WorkStealingPool,
        hb: &ShardHeartbeat,
        block: usize,
        layer: LayerKind,
        x: &Matrix,
    ) -> Vec<(usize, ShardIncidentKind)> {
        let mode = seam_mode(layer);
        let (plan, scratch) = (&self.plan, &mut self.scratch);
        scratch.col_los.clear();
        scratch
            .col_los
            .extend(scratch.pending.iter().map(|&s| plan.span(s, layer).start));
        let FanoutScratch {
            pending: ids,
            directives,
            col_los,
            ..
        } = &self.scratch;
        let weights = &self.weights;
        let bufs = &self.bufs;
        let panics = pool.try_run(ids.len(), 1, |j| {
            let s = ids[j];
            hb.begin(s);
            match directives[j] {
                TaskDirective::Crash => panic!("injected shard crash"),
                TaskDirective::Hang => {
                    let t0 = Instant::now();
                    loop {
                        if hb.is_cancelled(s) || t0.elapsed() > HANG_FALLBACK {
                            panic!("shard hang isolated by heartbeat");
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                TaskDirective::Proceed => {}
            }
            let lin = weights[s].blocks[block]
                .layer(layer)
                .expect("sharded layer present for this architecture");
            match mode {
                SeamMode::Col => {
                    let mut buf = lock_clean(&bufs[s].dense);
                    matmul_transb_into(x, &lin.weight, &mut buf);
                }
                SeamMode::Row => {
                    let mut part = lock_clean(&bufs[s].partial);
                    matmul_transb_cols_f64(x, &lin.weight, col_los[j], &mut part);
                }
            }
            hb.end(s);
        });
        let failures: Vec<(usize, ShardIncidentKind)> = panics
            .iter()
            .map(|p| {
                let s = ids[p.index];
                let kind = if p.message.contains("hang") {
                    ShardIncidentKind::Hang
                } else {
                    ShardIncidentKind::Crash
                };
                (s, kind)
            })
            .collect();
        // Clear cancel flags and disarm every dispatched shard so a slot
        // is clean for re-execution or its repartitioned successor.
        for &s in ids {
            hb.reset(s);
        }
        failures
    }

    fn shard_buf_anomalous(&self, s: usize, layer: LayerKind) -> bool {
        match seam_mode(layer) {
            SeamMode::Col => {
                let buf = lock_clean(&self.bufs[s].dense);
                buf.as_slice()
                    .iter()
                    .any(|&v| !v.is_finite() || f64::from(v.abs()) > PARTIAL_ANOMALY_ABS)
            }
            SeamMode::Row => {
                let part = lock_clean(&self.bufs[s].partial);
                part.iter()
                    .any(|&v| !v.is_finite() || v.abs() > PARTIAL_ANOMALY_ABS)
            }
        }
    }

    /// Assemble the per-shard buffers into the full layer output:
    /// column-sharded slices are concatenated, row-sharded partials go
    /// through the f64 reduce seam; the bias is added and the result
    /// quantised exactly as the unsharded [`Linear::forward_into`] does.
    fn gather(&mut self, block: usize, layer: LayerKind, n_rows: usize, out: &mut Matrix) {
        let config = self.model.config();
        let out_features = config.out_features(layer);
        match seam_mode(layer) {
            SeamMode::Col => {
                out.reset(n_rows, out_features);
                for (s, sw) in self.weights.iter().enumerate() {
                    let span = self.plan.span(s, layer);
                    if span.is_empty() {
                        continue;
                    }
                    let buf = lock_clean(&self.bufs[s].dense);
                    let bias = sw.blocks[block]
                        .layer(layer)
                        .and_then(|l| l.bias.as_deref());
                    for r in 0..n_rows {
                        let dst = &mut out.row_mut(r)[span.start..span.end];
                        dst.copy_from_slice(buf.row(r));
                        if let Some(b) = bias {
                            for (o, &bv) in dst.iter_mut().zip(b) {
                                *o += bv;
                            }
                        }
                    }
                }
            }
            SeamMode::Row => {
                // Each shard's buffer trades places with the one reduced a
                // linear ago, which its next partial then overwrites: the
                // seam gets the partials as one list without holding a
                // guard per shard or copying an element.
                let parts = &mut self.scratch.parts;
                parts.resize_with(self.bufs.len(), Vec::new);
                for (part, buf) in parts.iter_mut().zip(&self.bufs) {
                    std::mem::swap(part, &mut *lock_clean(&buf.partial));
                }
                reduce_seam_into(parts, n_rows, out_features, out);
                // The bias lives on shard 0 and is applied once, after the
                // reduce — the Megatron row-parallel convention.
                if let Some(b) = self.weights[0].blocks[block]
                    .layer(layer)
                    .and_then(|l| l.bias.as_ref())
                {
                    ft2_tensor::add_bias_inplace(out, b);
                }
            }
        }
        out.quantize(config.dtype);
    }

    /// Greedy sharded generation with shard-granular fault isolation and
    /// no lane taps: [`ShardedModel::generate_tapped`] with an empty
    /// [`TapList`].
    pub fn generate_with(
        &mut self,
        pool: &WorkStealingPool,
        prompt: &[u32],
        gen_tokens: usize,
        taps: &mut ShardTapList<'_>,
        policy: RecoveryPolicy,
        heartbeat: Duration,
    ) -> ShardedGeneration {
        let lane_taps = &mut TapList::new();
        self.generate_tapped(pool, prompt, gen_tokens, lane_taps, taps, policy, heartbeat)
    }

    /// Greedy sharded generation: the engine's generation loop
    /// ([`Model::generate_resilient`]'s — steps, snapshots, the Storm →
    /// rollback ladder, [`StepRecord`]s) with every linear routed through
    /// the fan-out. `lane_taps` see what the dense engine's taps see — each
    /// linear's gathered, bias-added, quantised output, never a partial —
    /// so an FT2 protector profiles and clamps after the seam.
    ///
    /// A shard failure that escalates past the per-linear ladder rolls the
    /// step back and either degrades (evict + re-partition + re-run, when
    /// [`RecoveryPolicy::shard_degrade`] is set and survivors remain) or
    /// ends the generation with [`ShardedGeneration::failed`] set.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_tapped(
        &mut self,
        pool: &WorkStealingPool,
        prompt: &[u32],
        gen_tokens: usize,
        lane_taps: &mut TapList<'_>,
        taps: &mut ShardTapList<'_>,
        policy: RecoveryPolicy,
        heartbeat: Duration,
    ) -> ShardedGeneration {
        assert!(gen_tokens >= 1, "gen_tokens must be at least 1");
        self.reset();
        let monitor = HeartbeatMonitor::spawn(self.plan.shards, heartbeat);
        let hb = monitor.state();
        let model = self.model;
        let mut host = Fanout {
            sharded: self,
            pool,
            hb: &hb,
            step: 0,
            taps,
            policy,
            stats: ShardedGeneration::default(),
        };
        let state = &mut StateTapList::new();
        let out = model.generate_over(&mut host, prompt, gen_tokens, lane_taps, state, policy);
        let Fanout { sharded, stats, .. } = host;
        ShardedGeneration {
            tokens: out.tokens,
            steps: out.steps,
            rollbacks: out.rollbacks,
            tap_storms: out.storms,
            recovery_failed: out.recovery_failed,
            prefill_ns: out.prefill_ns,
            decode_ns: out.decode_ns,
            shards: sharded.weights.len(),
            ..stats
        }
    }
}

/// The sharded host of the generation loop. As the walk's [`Exec`], each
/// linear is one trip through the fan-out, the per-linear recovery ladder
/// and the gather; `Err` means a shard failure survived every per-linear
/// rung and aborts the pass mid-block. As the loop's [`Host`], the shard
/// taps' step hooks run around every pass, and giving up on a pass means
/// degrade or fail.
struct Fanout<'a, 'm, 't> {
    sharded: &'a mut ShardedModel<'m>,
    pool: &'a WorkStealingPool,
    hb: &'a ShardHeartbeat,
    /// The step whose pass is running.
    step: usize,
    taps: &'a mut ShardTapList<'t>,
    policy: RecoveryPolicy,
    /// Filled as the generation runs; the loop's own output joins it at
    /// the end.
    stats: ShardedGeneration,
}

impl Host for Fanout<'_, '_, '_> {
    fn before_pass(&mut self, step: usize) {
        self.step = step;
        let rep = self.taps.on_step_start(step, &mut self.sharded.weights);
        self.stats.scrubbed_tiles += rep.scrubbed_tiles;
        self.stats.tiles_repaired += rep.weight_repairs;
    }

    fn after_pass(&mut self, step: usize) {
        self.taps.on_step_end(step);
    }

    fn pass_failed(&mut self, step: usize, ShardIncident { shard, kind }: ShardIncident) -> bool {
        if !(self.policy.shard_degrade && self.sharded.weights.len() > 1) {
            self.stats.failed = Some(ShardFailure { step, shard, kind });
            return false;
        }
        self.stats
            .degrade_events
            .push(DegradeEvent { step, shard, kind });
        self.stats.shards_lost += 1;
        self.sharded.degrade();
        self.taps.on_repartition(&self.sharded.weights);
        // Survivor slots are reset for the repartitioned plan; slots beyond
        // it are *evicted* so a monitor polling after the eviction can
        // never report the dead shard as hung again.
        let live = self.sharded.weights.len();
        for i in 0..self.hb.shards() {
            if i < live {
                self.hb.reset(i);
            } else {
                self.hb.evict(i);
            }
        }
        true
    }
}

impl Exec for Fanout<'_, '_, '_> {
    type Error = ShardIncident;

    fn linear(
        &mut self,
        _golden: &Linear,
        TapPoint { block, layer }: TapPoint,
        _dtype: DType,
        x: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), ShardIncident> {
        let Fanout {
            sharded,
            pool,
            hb,
            step,
            taps,
            policy,
            stats,
        } = self;
        let step = *step;
        sharded.scratch.pending.clear();
        sharded.scratch.pending.extend(0..sharded.weights.len());
        let mut ladder = Ladder::new(
            if policy.enabled() { SHARD_REEXECS } else { 0 },
            policy.repair && !taps.is_empty(),
        );
        loop {
            let FanoutScratch {
                pending,
                directives,
                ..
            } = &mut sharded.scratch;
            directives.clear();
            directives.extend(
                pending
                    .iter()
                    .map(|&s| taps.directive(step, block, layer, s)),
            );
            let mut bad = sharded.exec(pool, hb, block, layer, x);
            // Crashed and hung shards left no partial to look at; the
            // anomalies found below are appended behind them.
            let crashed = bad.len();
            for &s in &sharded.scratch.pending {
                if bad[..crashed].iter().any(|&(b, _)| b == s) {
                    continue;
                }
                let ctx = ShardPartialCtx {
                    step,
                    block,
                    layer,
                    shard: s,
                };
                match seam_mode(layer) {
                    SeamMode::Col => {
                        let mut guard = lock_clean(&sharded.bufs[s].dense);
                        taps.on_partial(&ctx, &mut PartialMut::F32(&mut guard));
                    }
                    SeamMode::Row => {
                        let mut guard = lock_clean(&sharded.bufs[s].partial);
                        taps.on_partial(&ctx, &mut PartialMut::F64(&mut guard));
                    }
                }
                if sharded.shard_buf_anomalous(s, layer) {
                    stats.storms += 1;
                    bad.push((s, ShardIncidentKind::Anomaly));
                }
            }
            if bad.is_empty() {
                break;
            }
            let rung = ladder.fail();
            if rung == Rung::GiveUp {
                // Crash/hang failures (listed first) have no data and must
                // escalate to the step loop's degrade-or-fail; a
                // still-anomalous partial without the degrade rung is
                // accepted as-is — the detected-but-uncorrected path that
                // shows up as SDC, mirroring the unsharded engine's storm
                // acceptance.
                let (shard, kind) = bad[0];
                if kind == ShardIncidentKind::Anomaly && !policy.shard_degrade {
                    break;
                }
                return Err(ShardIncident { shard, kind });
            }
            // Re-execute the failed partials: transient faults are gone on
            // retry.
            stats.shard_retries += bad.len() as u32;
            retry(&mut sharded.scratch.pending, &bad);
            if let Rung::Repair { .. } = rung {
                // First a repair sweep over the suspect shards: persistent
                // weight corruption is restored from the scrubber's golden
                // copy. Timed: this is the "shard repair" cost the harness
                // compares against a full restart.
                let scope = RepairScope {
                    suspects: &sharded.scratch.pending,
                    block,
                    layer,
                };
                let t0 = Instant::now();
                let rep = taps.on_repair(&scope, &mut sharded.weights);
                stats.repair_ns += t0.elapsed().as_nanos() as u64;
                stats.scrubbed_tiles += rep.scrubbed_tiles;
                stats.tiles_repaired += rep.weight_repairs;
                stats.repair_rungs += 1;
            }
        }
        sharded.gather(block, layer, x.rows(), out);
        Ok(())
    }
}

/// Make the failed shards the next dispatch's pending list.
fn retry(pending: &mut Vec<usize>, bad: &[(usize, ShardIncidentKind)]) {
    pending.clear();
    pending.extend(bad.iter().map(|&(s, _)| s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    const HEARTBEAT: Duration = Duration::from_millis(15);

    #[test]
    fn balanced_spans_cover_without_overlap() {
        for (total, parts) in [(7usize, 4usize), (4, 4), (3, 4), (1, 1), (128, 5), (0, 3)] {
            let spans = balanced_spans(total, parts);
            assert_eq!(spans.len(), parts);
            let mut covered = 0;
            for (i, s) in spans.iter().enumerate() {
                assert!(s.start <= s.end);
                assert_eq!(s.start, covered, "span {i} not contiguous");
                covered = s.end;
            }
            assert_eq!(covered, total);
            let lens: Vec<usize> = spans.iter().map(|s| s.len()).collect();
            let max = lens.iter().copied().max().unwrap();
            let min = lens.iter().copied().min().unwrap();
            assert!(max - min <= 1, "unbalanced spans: {lens:?}");
        }
    }

    #[test]
    fn partition_reassemble_is_involution() {
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let golden = crate::weights::ModelWeights::build(&config);
            for n in 1..=5 {
                let plan = ShardPlan::new(&config, n);
                let shards = plan.partition(&config, &golden);
                // Scramble the target's block linears, then reassemble.
                let mut target = golden.clone();
                for bw in &mut target.blocks {
                    for kind in config.block_layers() {
                        let lin = bw.layer_mut(*kind).unwrap();
                        for v in lin.weight.as_mut_slice() {
                            *v = 7.75;
                        }
                        if let Some(b) = lin.bias.as_mut() {
                            for v in b {
                                *v = -7.75;
                            }
                        }
                    }
                }
                plan.reassemble_into(&shards, &mut target);
                assert_eq!(
                    target, golden,
                    "{}: partition/reassemble not an involution at n={n}",
                    config.name
                );
            }
        }
    }

    #[test]
    fn reset_in_place_equals_a_fresh_partition() {
        /// Overwrite every weight and bias element of every shard tile.
        fn corrupt(config: &ModelConfig, shards: &mut [ShardWeights]) {
            for sb in shards.iter_mut().flat_map(|sw| &mut sw.blocks) {
                for &kind in config.block_layers() {
                    let lin = sb.layer_mut(kind).unwrap();
                    lin.weight.as_mut_slice().fill(f32::NAN);
                    if let Some(b) = lin.bias.as_mut() {
                        b.fill(-7.75);
                    }
                }
            }
        }
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let config = model.config();
            for n in [1usize, 2, 3, 5] {
                let mut sharded = ShardedModel::new(&model, n);
                let fresh = sharded.plan.partition(config, model.weights());
                let tile = |m: &ShardedModel<'_>| {
                    m.weights[n - 1].blocks[0]
                        .out_proj
                        .weight
                        .as_slice()
                        .as_ptr()
                };
                let before = tile(&sharded);
                corrupt(config, &mut sharded.weights);
                assert_ne!(sharded.weights, fresh);
                sharded.reset();
                assert_eq!(sharded.weights, fresh, "{} n={n}", config.name);
                assert_eq!(tile(&sharded), before, "reset must reuse the shard buffers");
                if n == 1 {
                    continue;
                }
                // A degrade changes the plan; reset must then re-partition
                // back onto the initial shard count.
                sharded.degrade();
                assert_eq!(sharded.alive(), n - 1);
                corrupt(config, &mut sharded.weights);
                sharded.reset();
                assert_eq!(sharded.alive(), n);
                assert_eq!(sharded.plan().shards, n);
                assert_eq!(
                    sharded.weights, fresh,
                    "{} n={n} after a degrade",
                    config.name
                );
            }
        }
    }

    #[test]
    fn fault_free_generation_is_shard_count_invariant() {
        let pool = WorkStealingPool::new(3);
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Model::new(config);
            let prompt = [3u32, 14, 15, 9, 2, 6];
            let mut golden_taps = ShardTapList::new();
            let golden = ShardedModel::new(&model, 1).generate_with(
                &pool,
                &prompt,
                8,
                &mut golden_taps,
                RecoveryPolicy::disabled(),
                HEARTBEAT,
            );
            assert_eq!(golden.tokens.len(), 8);
            assert!(golden.completed());
            for n in [2usize, 3, 4] {
                let mut taps = ShardTapList::new();
                let out = ShardedModel::new(&model, n).generate_with(
                    &pool,
                    &prompt,
                    8,
                    &mut taps,
                    RecoveryPolicy::disabled(),
                    HEARTBEAT,
                );
                assert!(out.completed());
                assert_eq!(out.storms, 0);
                assert_eq!(
                    out.tokens,
                    golden.tokens,
                    "{} diverged at n={n}",
                    model.config().name
                );
            }
        }
    }

    /// Directive-based injector for executor tests.
    struct DirectiveFault {
        shard: usize,
        from_step: usize,
        directive: TaskDirective,
        persistent: bool,
        fired: bool,
    }

    impl ShardTap for DirectiveFault {
        fn directive(
            &mut self,
            step: usize,
            block: usize,
            _layer: LayerKind,
            shard: usize,
        ) -> TaskDirective {
            if shard == self.shard && block == 0 && step >= self.from_step {
                if self.persistent {
                    return self.directive;
                }
                if !self.fired {
                    self.fired = true;
                    return self.directive;
                }
            }
            TaskDirective::Proceed
        }

        fn on_repartition(&mut self, _shards: &[ShardWeights]) {
            // The faulty "GPU" left the replica.
            self.fired = true;
            self.persistent = false;
        }
    }

    #[test]
    fn crash_with_degrade_keeps_serving() {
        let pool = WorkStealingPool::new(3);
        let model = Model::new(ModelConfig::tiny_opt());
        let mut fault = DirectiveFault {
            shard: 1,
            from_step: 2,
            directive: TaskDirective::Crash,
            persistent: true,
            fired: false,
        };
        let mut taps = ShardTapList::new();
        taps.push(&mut fault);
        let out = ShardedModel::new(&model, 3).generate_with(
            &pool,
            &[3, 14, 15, 9],
            8,
            &mut taps,
            RecoveryPolicy::retries(1).with_shard_degrade(),
            HEARTBEAT,
        );
        assert!(out.completed(), "degrade must keep the generation alive");
        assert_eq!(out.tokens.len(), 8);
        assert_eq!(out.shards_lost, 1);
        assert_eq!(out.shards, 2);
        assert_eq!(out.degrade_events.len(), 1);
        assert_eq!(out.degrade_events[0].kind, ShardIncidentKind::Crash);
        assert_eq!(out.degrade_events[0].step, 2);
    }

    #[test]
    fn crash_without_degrade_fails_the_generation() {
        let pool = WorkStealingPool::new(2);
        let model = Model::new(ModelConfig::tiny_opt());
        let mut fault = DirectiveFault {
            shard: 0,
            from_step: 3,
            directive: TaskDirective::Crash,
            persistent: true,
            fired: false,
        };
        let mut taps = ShardTapList::new();
        taps.push(&mut fault);
        let out = ShardedModel::new(&model, 2).generate_with(
            &pool,
            &[3, 14, 15, 9],
            8,
            &mut taps,
            RecoveryPolicy::retries(1),
            HEARTBEAT,
        );
        let failure = out.failed.expect("crash without degrade must fail");
        assert_eq!(failure.kind, ShardIncidentKind::Crash);
        assert_eq!(failure.step, 3);
        assert_eq!(failure.shard, 0);
        assert_eq!(out.tokens.len(), 3, "tokens before the failing step");
    }

    #[test]
    fn hang_is_isolated_by_the_heartbeat_not_a_deadline() {
        let pool = WorkStealingPool::new(2);
        let model = Model::new(ModelConfig::tiny_opt());
        let mut fault = DirectiveFault {
            shard: 1,
            from_step: 1,
            directive: TaskDirective::Hang,
            persistent: true,
            fired: false,
        };
        let mut taps = ShardTapList::new();
        taps.push(&mut fault);
        let t0 = Instant::now();
        let out = ShardedModel::new(&model, 2).generate_with(
            &pool,
            &[3, 14, 15, 9],
            6,
            &mut taps,
            RecoveryPolicy::retries(1).with_shard_degrade(),
            Duration::from_millis(10),
        );
        let elapsed = t0.elapsed();
        assert!(out.completed());
        assert_eq!(out.shards_lost, 1);
        assert_eq!(out.degrade_events[0].kind, ShardIncidentKind::Hang);
        // Isolation within a few heartbeat intervals (re-exec waits once
        // more), nowhere near a multi-second trial deadline.
        assert!(
            elapsed < Duration::from_secs(3),
            "hang isolation took {elapsed:?}"
        );
    }

    /// Scales one shard's partial by 1e9 once — a transient activation
    /// storm below the layer-output taps.
    struct TransientStormTap {
        shard: usize,
        step: usize,
        fired: bool,
    }

    impl ShardTap for TransientStormTap {
        fn on_partial(&mut self, ctx: &ShardPartialCtx, data: PartialMut<'_>) {
            if ctx.shard == self.shard && ctx.step == self.step && !self.fired {
                self.fired = true;
                match data {
                    PartialMut::F32(m) => {
                        for v in m.as_mut_slice() {
                            *v *= 1e9;
                        }
                    }
                    PartialMut::F64(p) => {
                        for v in p.iter_mut() {
                            *v *= 1e9;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transient_storm_is_cleared_by_reexecution() {
        let pool = WorkStealingPool::new(2);
        let model = Model::new(ModelConfig::tiny_llama());
        let prompt = [4u32, 9, 16, 25];
        let mut clean_taps = ShardTapList::new();
        let clean = ShardedModel::new(&model, 2).generate_with(
            &pool,
            &prompt,
            8,
            &mut clean_taps,
            RecoveryPolicy::disabled(),
            HEARTBEAT,
        );
        let mut storm = TransientStormTap {
            shard: 0,
            step: 3,
            fired: false,
        };
        let mut taps = ShardTapList::new();
        taps.push(&mut storm);
        let out = ShardedModel::new(&model, 2).generate_with(
            &pool,
            &prompt,
            8,
            &mut taps,
            RecoveryPolicy::retries(1),
            HEARTBEAT,
        );
        assert!(out.completed());
        assert_eq!(
            out.tokens, clean.tokens,
            "re-execution must clear the storm"
        );
        assert!(out.storms >= 1);
        assert!(out.shard_retries >= 1);
    }

    #[test]
    fn a_shard_crash_and_a_tap_storm_recover_in_one_generation() {
        use crate::hooks::{AnomalyVerdict, LayerTap, StepReport, TapCtx};
        use crate::state::{StateCtx, StateReport, StateTap};

        /// Shard 1 crashes in block 1 — block 0 has appended its K/V row
        /// by then — from step 2 until it is evicted.
        struct CrashUntilEvicted(bool);
        impl ShardTap for CrashUntilEvicted {
            fn directive(
                &mut self,
                step: usize,
                block: usize,
                _: LayerKind,
                shard: usize,
            ) -> TaskDirective {
                if !self.0 && step >= 2 && block == 1 && shard == 1 {
                    return TaskDirective::Crash;
                }
                TaskDirective::Proceed
            }
            fn on_repartition(&mut self, _shards: &[ShardWeights]) {
                self.0 = true;
            }
        }
        /// Storms at step 4 until rolled back once.
        struct StormOnce {
            healed: bool,
            stormed: bool,
        }
        impl LayerTap for StormOnce {
            fn on_output(&mut self, ctx: &TapCtx, _data: &mut Matrix) {
                self.stormed |= ctx.step == 4 && !self.healed;
            }
            fn end_step(&mut self, _step: usize) -> StepReport {
                let verdict = if std::mem::take(&mut self.stormed) {
                    AnomalyVerdict::Storm
                } else {
                    AnomalyVerdict::Clean
                };
                StepReport {
                    verdict,
                    ..StepReport::default()
                }
            }
            fn on_rollback(&mut self, _step: usize, _attempt: u32) {
                self.healed = true;
            }
        }
        /// `(step, cache length before the pass, after it)`, every pass.
        struct KvLens(Vec<(usize, usize, usize)>);
        impl StateTap for KvLens {
            fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
                self.0.push((ctx.step, ctx.cache.len(), 0));
                StateReport::default()
            }
            fn on_step_end(&mut self, ctx: &mut StateCtx<'_>) {
                self.0.last_mut().unwrap().2 = ctx.cache.len();
            }
        }

        let pool = WorkStealingPool::new(3);
        let model = Model::new(ModelConfig::tiny_opt());
        let prompt = [3u32, 14, 15, 9];
        let policy = RecoveryPolicy::retries(2).with_shard_degrade();
        let (mut crash, mut storm, mut lens) = (
            CrashUntilEvicted(false),
            StormOnce {
                healed: false,
                stormed: false,
            },
            KvLens(Vec::new()),
        );
        let (mut taps, mut lane_taps, mut state) =
            (ShardTapList::new(), TapList::new(), StateTapList::new());
        taps.push(&mut crash);
        lane_taps.push(&mut storm);
        state.push(&mut lens);
        // `generate_tapped` with a state tap riding along to watch the cache.
        let mut sharded = ShardedModel::new(&model, 3);
        let monitor = HeartbeatMonitor::spawn(3, HEARTBEAT);
        let mut host = Fanout {
            sharded: &mut sharded,
            pool: &pool,
            hb: &monitor.state(),
            step: 0,
            taps: &mut taps,
            policy,
            stats: ShardedGeneration::default(),
        };
        let out = model.generate_over(&mut host, &prompt, 8, &mut lane_taps, &mut state, policy);
        let stats = host.stats;
        drop((lane_taps, state));

        assert_eq!(out.tokens.len(), 8, "both failures are recovered from");
        assert!(stats.failed.is_none() && !out.recovery_failed);
        assert_eq!(stats.shards_lost, 1);
        assert_eq!(stats.degrade_events[0].step, 2);
        assert_eq!((out.rollbacks, out.storms), (1, 1));
        assert_eq!(out.steps[4].redecodes, 1);
        assert_eq!(out.steps[2].redecodes, 0, "a degrade is not a re-decode");
        // Every pass of a step — the aborted one, the stormed one, their
        // re-runs — starts from the step's snapshot, and the accepted one
        // leaves exactly one more row.
        let passes = |step| lens.0.iter().filter(move |p| p.0 == step);
        for step in 0..8 {
            let snapshot = if step == 0 {
                0
            } else {
                prompt.len() + step - 1
            };
            assert!(
                passes(step).all(|p| p.1 == snapshot),
                "step {step}: {:?}",
                lens.0
            );
            let rows = if step == 0 { prompt.len() } else { 1 };
            assert_eq!(
                passes(step).next_back().unwrap().2,
                snapshot + rows,
                "step {step}"
            );
            assert_eq!(
                passes(step).count(),
                if step == 2 || step == 4 { 2 } else { 1 }
            );
        }
        // The aborted pass had appended block 0's row before it died.
        assert_eq!(passes(2).next().unwrap().2, prompt.len() + 2);
    }

    #[test]
    fn empty_span_shards_are_valid_failure_domains() {
        // heads=4, ffn=128 at n=5: shard 4 has an empty head span but a
        // non-empty ffn span; generation must still be shard-invariant.
        let pool = WorkStealingPool::new(3);
        let model = Model::new(ModelConfig::tiny_opt());
        let prompt = [1u32, 2, 3];
        let mut a_taps = ShardTapList::new();
        let a = ShardedModel::new(&model, 1).generate_with(
            &pool,
            &prompt,
            5,
            &mut a_taps,
            RecoveryPolicy::disabled(),
            HEARTBEAT,
        );
        let mut b_taps = ShardTapList::new();
        let b = ShardedModel::new(&model, 5).generate_with(
            &pool,
            &prompt,
            5,
            &mut b_taps,
            RecoveryPolicy::disabled(),
            HEARTBEAT,
        );
        assert_eq!(a.tokens, b.tokens);
    }
}
