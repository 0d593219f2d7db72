//! The layer-output hook mechanism.
//!
//! Mirrors PyTorch's `register_forward_hook`, which the paper's fault
//! injector and protection functions are built on: after every linear layer
//! produces (and stores) its output, each registered tap may observe and
//! mutate the output matrix in registration order. The fault injector is
//! registered *before* the protector, so a fresh fault is visible to the
//! range check of the same layer — matching the paper's post-layer
//! protection semantics.

use crate::config::LayerKind;
use ft2_tensor::{DType, Matrix};

/// Identifies one linear layer instance in the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TapPoint {
    /// Decoder block index, `0..config.blocks`.
    pub block: usize,
    /// Which linear layer inside the block.
    pub layer: LayerKind,
}

/// What kind of tensor a hook observes. Fault injection targets only
/// [`HookKind::LinearOutput`] (the paper injects into linear layers);
/// Ranger-style protection attaches to [`HookKind::ActivationOutput`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HookKind {
    /// The freshly stored output of the linear layer named in `TapPoint`.
    LinearOutput,
    /// The output of the MLP activation that *follows* the linear layer
    /// named in `TapPoint` (`FC1` for OPT-style, `GATE_PROJ` for
    /// Llama-style).
    ActivationOutput,
}

/// Context handed to taps along with the mutable layer output.
#[derive(Clone, Copy, Debug)]
pub struct TapCtx {
    /// The layer that produced this output.
    pub point: TapPoint,
    /// Whether this is a linear output or the following activation output.
    pub hook: HookKind,
    /// Generation step: `0` is the prefill (first-token) step, `t >= 1` is
    /// the decode step producing token `t+1`.
    pub step: usize,
    /// Sequence position of the first row of the output matrix (prefill
    /// covers positions `0..prompt_len`; decode steps a single position).
    pub first_pos: usize,
    /// Storage precision of the output (faults corrupt this format).
    pub dtype: DType,
}

/// Severity classification of one generation step, produced by taps that
/// correct anomalies (the protection tap). The engine's recovery loop acts
/// on the merged verdict of all taps after each decode step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyVerdict {
    /// No anomaly was detected this step.
    #[default]
    Clean,
    /// Anomalies were detected and corrected within the detection budget;
    /// the corrected state is trusted.
    Corrected,
    /// The detector fired past its budget (or saw a severe excursion) — the
    /// hidden state is likely corrupted beyond what clamping repairs, and
    /// the step is a rollback candidate.
    Storm,
}

/// Widest decoder-block count across the model zoo (OPT-6.7B-class configs
/// top out at 32 blocks). Sized as a fixed array so [`StepReport`] stays
/// `Copy` and allocation-free on the per-step hot path; deeper blocks fold
/// into the last slot.
pub const MAX_BLOCK_HITS: usize = 32;

/// What a tap observed (and corrected) during one generation step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Out-of-bound values clamped/zeroed this step.
    pub clamps: u64,
    /// NaN values corrected this step.
    pub nans: u64,
    /// The tap's severity verdict for the step.
    pub verdict: AnomalyVerdict,
    /// Anomalies attributed per decoder block this step (corrections
    /// applied by protection taps, strikes recorded by injector taps),
    /// indexed by block; blocks `>= MAX_BLOCK_HITS` fold into the last
    /// slot. Drives the per-layer heatmap of the live event stream.
    pub block_hits: [u32; MAX_BLOCK_HITS],
}

impl StepReport {
    /// Total corrections applied this step.
    pub fn corrections(&self) -> u64 {
        self.clamps + self.nans
    }

    /// Record one correction against `block` (saturating; deep blocks fold
    /// into the last slot).
    pub fn record_block_hit(&mut self, block: usize) {
        let slot = block.min(MAX_BLOCK_HITS - 1);
        self.block_hits[slot] = self.block_hits[slot].saturating_add(1);
    }

    /// Blocks with at least one correction this step, as `(block, hits)`.
    pub fn hit_blocks(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.block_hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h > 0)
            .map(|(b, &h)| (b, h))
    }

    /// Merge another tap's report: counts add, the verdict takes the
    /// maximum severity.
    pub fn merge(&mut self, other: &StepReport) {
        self.clamps += other.clamps;
        self.nans += other.nans;
        self.verdict = self.verdict.max(other.verdict);
        for (mine, theirs) in self.block_hits.iter_mut().zip(other.block_hits.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }
}

/// A forward hook on linear-layer outputs.
pub trait LayerTap {
    /// Observe and possibly mutate the freshly-stored output of a linear
    /// layer. `data` has one row per sequence position processed this step
    /// and `out_features` columns.
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix);

    /// Called by the engine after the forward pass of `step` completes.
    /// Taps that accumulate per-step anomaly counters report (and reset)
    /// them here; the default is a clean report.
    fn end_step(&mut self, _step: usize) -> StepReport {
        StepReport::default()
    }

    /// Called when the engine rolls back `step` for re-decode `attempt`
    /// (0-based). Protection taps escalate here; most taps ignore it.
    fn on_rollback(&mut self, _step: usize, _attempt: u32) {}
}

/// An ordered list of taps, applied in registration order.
#[derive(Default)]
pub struct TapList<'a> {
    taps: Vec<&'a mut dyn LayerTap>,
}

impl<'a> TapList<'a> {
    /// Empty tap list.
    pub fn new() -> Self {
        TapList { taps: Vec::new() }
    }

    /// Register a tap; later registrations run after earlier ones.
    pub fn push(&mut self, tap: &'a mut dyn LayerTap) -> &mut Self {
        self.taps.push(tap);
        self
    }

    /// Number of registered taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True when no taps are registered.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Run all taps on a layer output.
    pub fn fire(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        for tap in &mut self.taps {
            tap.on_output(ctx, data);
        }
    }

    /// End-of-step notification: merge every tap's [`StepReport`] (counts
    /// add, verdict takes the maximum severity).
    pub fn end_step(&mut self, step: usize) -> StepReport {
        let mut report = StepReport::default();
        for tap in &mut self.taps {
            report.merge(&tap.end_step(step));
        }
        report
    }

    /// Tell every tap the engine is rolling back `step` for re-decode
    /// `attempt`.
    pub fn notify_rollback(&mut self, step: usize, attempt: u32) {
        for tap in &mut self.taps {
            tap.on_rollback(step, attempt);
        }
    }
}

/// A tap list is itself a tap — the composite of its members in
/// registration order — which is how a whole list rides in one lane of the
/// layer walk.
impl LayerTap for TapList<'_> {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        self.fire(ctx, data);
    }

    fn end_step(&mut self, step: usize) -> StepReport {
        TapList::end_step(self, step)
    }

    fn on_rollback(&mut self, step: usize, attempt: u32) {
        self.notify_rollback(step, attempt);
    }
}

/// The no-op tap set for clean (unfaulted, unprotected) runs.
pub struct NoTaps;

impl LayerTap for NoTaps {
    fn on_output(&mut self, _ctx: &TapCtx, _data: &mut Matrix) {}
}

/// A recording tap that captures layer outputs for analysis (used by the
/// value-distribution figures and by offline bound profiling).
pub struct RecordingTap {
    /// Captured `(ctx, flattened output)` pairs.
    pub captures: Vec<(TapCtx, Vec<f32>)>,
    /// Restrict capture to one block (None = all).
    pub only_block: Option<usize>,
    /// Capture only linear outputs (default), or activations too.
    pub linear_only: bool,
}

impl Default for RecordingTap {
    fn default() -> Self {
        RecordingTap {
            captures: Vec::new(),
            only_block: None,
            linear_only: true,
        }
    }
}

impl RecordingTap {
    /// Record every linear-layer output.
    pub fn all() -> Self {
        Self::default()
    }

    /// Record only layers of the given block.
    pub fn for_block(block: usize) -> Self {
        RecordingTap {
            only_block: Some(block),
            ..Self::default()
        }
    }

    /// Also capture activation outputs.
    pub fn including_activations(mut self) -> Self {
        self.linear_only = false;
        self
    }
}

impl LayerTap for RecordingTap {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        if self.linear_only && ctx.hook != HookKind::LinearOutput {
            return;
        }
        if let Some(b) = self.only_block {
            if ctx.point.block != b {
                return;
            }
        }
        self.captures.push((*ctx, data.as_slice().to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AddOne;
    impl LayerTap for AddOne {
        fn on_output(&mut self, _ctx: &TapCtx, data: &mut Matrix) {
            for v in data.as_mut_slice() {
                *v += 1.0;
            }
        }
    }

    struct Double;
    impl LayerTap for Double {
        fn on_output(&mut self, _ctx: &TapCtx, data: &mut Matrix) {
            for v in data.as_mut_slice() {
                *v *= 2.0;
            }
        }
    }

    fn ctx() -> TapCtx {
        TapCtx {
            point: TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            hook: HookKind::LinearOutput,
            step: 0,
            first_pos: 0,
            dtype: DType::F32,
        }
    }

    #[test]
    fn taps_run_in_registration_order() {
        let mut add = AddOne;
        let mut dbl = Double;
        let mut taps = TapList::new();
        taps.push(&mut add).push(&mut dbl);
        let mut m = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        taps.fire(&ctx(), &mut m);
        // (x + 1) * 2, not x * 2 + 1.
        assert_eq!(m.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn recording_tap_filters_by_block() {
        let mut rec = RecordingTap::for_block(1);
        let mut taps = TapList::new();
        taps.push(&mut rec);
        let mut m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let mut c = ctx();
        taps.fire(&c, &mut m); // block 0: filtered out
        c.point.block = 1;
        taps.fire(&c, &mut m); // block 1: captured
        drop(taps);
        assert_eq!(rec.captures.len(), 1);
        assert_eq!(rec.captures[0].1, vec![3.0, 4.0]);
    }

    struct Stormy;
    impl LayerTap for Stormy {
        fn on_output(&mut self, _ctx: &TapCtx, _data: &mut Matrix) {}
        fn end_step(&mut self, _step: usize) -> StepReport {
            let mut r = StepReport {
                clamps: 3,
                nans: 1,
                verdict: AnomalyVerdict::Storm,
                ..StepReport::default()
            };
            r.record_block_hit(2);
            r
        }
    }

    #[test]
    fn end_step_merges_counts_and_takes_max_verdict() {
        let mut quiet = AddOne; // default end_step: clean
        let mut loud = Stormy;
        let mut taps = TapList::new();
        taps.push(&mut quiet).push(&mut loud);
        let report = taps.end_step(2);
        assert_eq!(report.clamps, 3);
        assert_eq!(report.nans, 1);
        assert_eq!(report.corrections(), 4);
        assert_eq!(report.verdict, AnomalyVerdict::Storm);
        assert_eq!(report.hit_blocks().collect::<Vec<_>>(), vec![(2, 1)]);
    }

    #[test]
    fn block_hits_merge_elementwise_and_fold_deep_blocks() {
        let mut a = StepReport::default();
        a.record_block_hit(0);
        a.record_block_hit(2);
        let mut b = StepReport::default();
        b.record_block_hit(2);
        b.record_block_hit(MAX_BLOCK_HITS + 7); // folds into the last slot
        a.merge(&b);
        assert_eq!(
            a.hit_blocks().collect::<Vec<_>>(),
            vec![(0, 1), (2, 2), (MAX_BLOCK_HITS - 1, 1)]
        );
    }

    #[test]
    fn verdict_severity_is_ordered() {
        assert!(AnomalyVerdict::Clean < AnomalyVerdict::Corrected);
        assert!(AnomalyVerdict::Corrected < AnomalyVerdict::Storm);
        let mut r = StepReport::default();
        r.merge(&StepReport {
            clamps: 1,
            nans: 0,
            verdict: AnomalyVerdict::Corrected,
            ..StepReport::default()
        });
        assert_eq!(r.verdict, AnomalyVerdict::Corrected);
        r.merge(&StepReport::default()); // clean merge cannot downgrade
        assert_eq!(r.verdict, AnomalyVerdict::Corrected);
    }

    #[test]
    fn empty_taplist_is_noop() {
        let mut taps = TapList::new();
        assert!(taps.is_empty());
        let mut m = Matrix::from_vec(1, 1, vec![5.0]);
        taps.fire(&ctx(), &mut m);
        assert_eq!(m.get(0, 0), 5.0);
    }
}
