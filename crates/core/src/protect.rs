//! The range-restriction protection tap.
//!
//! One [`Protector`] instance serves one inference trial (FT2's online
//! bounds are per-inference state). Its behaviour is assembled from four
//! orthogonal choices, which is what lets the same type express FT2 and all
//! three baselines:
//!
//! * **coverage** — which hook points are protected (Table 1 columns);
//! * **bounds source** — offline-profiled [`BoundsStore`] vs online
//!   first-token profiling with a scale factor;
//! * **correction policy** — clamp out-of-bound values to the bound (FT2,
//!   Take-away #8) or clip them to zero (the CNN-era default);
//! * **NaN policy** — rewrite NaNs to zero (`torch.nan_to_num`) or leave
//!   them.

use crate::bounds::{BoundsStore, LayerBounds};
use ft2_model::{AnomalyVerdict, HookKind, LayerKind, LayerTap, StepReport, TapCtx};
use ft2_tensor::Matrix;

/// Corrections per step at or above which the step verdict escalates to
/// [`AnomalyVerdict::Storm`] even without a severe excursion: a burst of
/// clamps usually signals a corrupted hidden state that clamping cannot
/// fully repair. Overridable via [`Protector::with_storm_threshold`]
/// (`FT2_STORM_THRESHOLD` at the harness level).
pub const DEFAULT_STORM_THRESHOLD: u64 = 16;

/// A corrected value is *severe* when it lies beyond the protection bound
/// widened by this extra factor. Benign clips land just outside the bound;
/// an exponent-bit fault lands orders of magnitude outside, so even a
/// single severe correction escalates the step to a storm.
const SEVERE_EXCESS_FACTOR: f32 = 8.0;

/// What to do with an out-of-bound value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Correction {
    /// Clamp into `[lo, hi]` — FT2's choice, which preserves the legitimate
    /// large neuron values of generative LLMs (Fig. 12).
    ClampToBound,
    /// Zero the value — the classic CNN range-restriction correction.
    ClipToZero,
}

/// What to do with NaN values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NanPolicy {
    /// Replace NaN with 0 (recoverable thanks to residual branches).
    ToZero,
    /// Leave NaNs untouched (they propagate).
    Keep,
}

/// Which hook points a scheme protects.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// Protected linear-output layer kinds.
    pub linear: Vec<LayerKind>,
    /// Protect MLP activation outputs (Ranger's attachment point).
    pub activations: bool,
}

impl Coverage {
    /// Protect the given linear layers only.
    pub fn linears(kinds: Vec<LayerKind>) -> Coverage {
        Coverage {
            linear: kinds,
            activations: false,
        }
    }

    /// Protect activation outputs only.
    pub fn activations_only() -> Coverage {
        Coverage {
            linear: Vec::new(),
            activations: true,
        }
    }

    /// Does this coverage include the given hook?
    pub fn covers(&self, kind: LayerKind, hook: HookKind) -> bool {
        match hook {
            HookKind::LinearOutput => self.linear.contains(&kind),
            HookKind::ActivationOutput => self.activations,
        }
    }
}

/// Where the protector's bounds come from.
#[derive(Clone, Debug)]
enum BoundsMode {
    /// Fixed bounds from offline profiling (already scaled if desired).
    Offline(BoundsStore),
    /// FT2's online mode: record during step 0, protect from step 1 on
    /// with bounds widened by `scale`.
    FirstToken { scale: f32, recording: BoundsStore },
}

/// Counters describing what a protector did during one inference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtectionStats {
    /// Out-of-bound values corrected.
    pub clipped: u64,
    /// NaN values corrected.
    pub nans_corrected: u64,
    /// Hook invocations on covered points.
    pub invocations: u64,
    /// Profiled bounds replaced by the static prior (integrity guard).
    pub bound_repairs: u64,
    /// Rollback escalations applied (one per `on_rollback`).
    pub escalations: u64,
}

/// The protection tap. Register it *after* the fault injector.
pub struct Protector {
    coverage: Coverage,
    mode: BoundsMode,
    correction: Correction,
    nan_policy: NanPolicy,
    /// Corrections per step at which the verdict escalates to storm.
    storm_threshold: u64,
    /// Rollback escalation level: each level halves the excess of the
    /// online scale factor over 1 and forces activation coverage on.
    escalation: u32,
    // Per-step counters, reported and reset by `end_step`.
    step_clamps: u64,
    step_nans: u64,
    step_severe: u64,
    /// Per-block correction counts for this step (feeds the live heatmap).
    step_block_hits: [u32; ft2_model::MAX_BLOCK_HITS],
    /// Activity counters (exposed for tests/overhead analysis).
    pub stats: ProtectionStats,
}

impl Protector {
    /// FT2's online protector: profile bounds during the first token, then
    /// protect subsequent tokens with `scale`-widened bounds, clamping to
    /// bound and zeroing NaNs.
    pub fn ft2_online(coverage: Coverage, scale: f32) -> Protector {
        Protector {
            coverage,
            mode: BoundsMode::FirstToken {
                scale,
                recording: BoundsStore::new(),
            },
            correction: Correction::ClampToBound,
            nan_policy: NanPolicy::ToZero,
            storm_threshold: DEFAULT_STORM_THRESHOLD,
            escalation: 0,
            step_clamps: 0,
            step_nans: 0,
            step_severe: 0,
            step_block_hits: [0; ft2_model::MAX_BLOCK_HITS],
            stats: ProtectionStats::default(),
        }
    }

    /// A protector with fixed offline-profiled bounds.
    pub fn offline(
        coverage: Coverage,
        bounds: BoundsStore,
        correction: Correction,
        nan_policy: NanPolicy,
    ) -> Protector {
        Protector {
            coverage,
            mode: BoundsMode::Offline(bounds),
            correction,
            nan_policy,
            storm_threshold: DEFAULT_STORM_THRESHOLD,
            escalation: 0,
            step_clamps: 0,
            step_nans: 0,
            step_severe: 0,
            step_block_hits: [0; ft2_model::MAX_BLOCK_HITS],
            stats: ProtectionStats::default(),
        }
    }

    /// Override the correction policy (for the clip-to-zero ablation).
    pub fn with_correction(mut self, correction: Correction) -> Protector {
        self.correction = correction;
        self
    }

    /// Override the NaN policy.
    pub fn with_nan_policy(mut self, policy: NanPolicy) -> Protector {
        self.nan_policy = policy;
        self
    }

    /// Override the per-step storm threshold.
    pub fn with_storm_threshold(mut self, threshold: u64) -> Protector {
        self.storm_threshold = threshold.max(1);
        self
    }

    /// The online scale factor after `level` rollback escalations: each
    /// level halves the excess over 1, tightening toward the raw profiled
    /// bound (scale 2.0 → 1.5 → 1.25 → …).
    fn escalated_scale(base: f32, level: u32) -> f32 {
        1.0 + (base - 1.0) / 2f32.powi(level.min(30) as i32)
    }

    /// The effective bounds for a point right now (for inspection).
    pub fn current_bounds(&self, point: &ft2_model::TapPoint) -> Option<LayerBounds> {
        match &self.mode {
            BoundsMode::Offline(store) => store.get(point).copied(),
            BoundsMode::FirstToken { scale, recording } => {
                let eff = Self::escalated_scale(*scale, self.escalation);
                recording.get(point).map(|b| b.scaled(eff))
            }
        }
    }

    /// Record one per-step correction against `block` for the heatmap.
    fn hit_block(&mut self, block: usize) {
        let slot = block.min(ft2_model::MAX_BLOCK_HITS - 1);
        self.step_block_hits[slot] = self.step_block_hits[slot].saturating_add(1);
    }

    fn correct(&mut self, block: usize, data: &mut Matrix, bounds: Option<LayerBounds>) {
        let nan_to_zero = self.nan_policy == NanPolicy::ToZero;
        // A correction is severe when the value lies beyond even the
        // extra-widened bound — a benign clip never lands that far out.
        let severe_bounds = bounds.map(|b| b.scaled(SEVERE_EXCESS_FACTOR));
        for v in data.as_mut_slice() {
            if v.is_nan() {
                if nan_to_zero {
                    *v = 0.0;
                    self.stats.nans_corrected += 1;
                    self.step_nans += 1;
                    self.step_severe += 1;
                    self.hit_block(block);
                }
                continue;
            }
            if let (Some(b), Some(sb)) = (bounds, severe_bounds) {
                if !b.contains(*v) {
                    if !sb.contains(*v) {
                        self.step_severe += 1;
                    }
                    *v = match self.correction {
                        Correction::ClampToBound => b.clamp(*v),
                        Correction::ClipToZero => 0.0,
                    };
                    self.stats.clipped += 1;
                    self.step_clamps += 1;
                    self.hit_block(block);
                }
            }
        }
    }
}

impl LayerTap for Protector {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        if !self.coverage.covers(ctx.point.layer, ctx.hook) {
            // Online mode records activation outputs during step 0 even
            // when activation coverage is off, so a rollback escalation
            // that switches it on mid-generation has bounds to use.
            // Recording never mutates data and is not an invocation.
            // (FT2's critical linear set is disjoint from the activation
            // points, so the shared TapPoint key cannot collide.)
            if ctx.step == 0 && ctx.hook == HookKind::ActivationOutput {
                if let BoundsMode::FirstToken { recording, .. } = &mut self.mode {
                    recording.observe_all(ctx.point, data.as_slice());
                }
            }
            return;
        }
        self.stats.invocations += 1;
        match &mut self.mode {
            BoundsMode::Offline(store) => {
                let b = store.get(&ctx.point).copied();
                self.correct(ctx.point.block, data, b);
            }
            BoundsMode::FirstToken { scale, recording } => {
                if ctx.step == 0 {
                    // First-token generation: record bounds; only NaN can be
                    // corrected (no bounds exist yet, §4.2.2).
                    recording.observe_all(ctx.point, data.as_slice());
                    let nan_to_zero = self.nan_policy == NanPolicy::ToZero;
                    if nan_to_zero {
                        let mut nans = 0u64;
                        for v in data.as_mut_slice() {
                            if v.is_nan() {
                                *v = 0.0;
                                nans += 1;
                            }
                        }
                        if nans > 0 {
                            self.stats.nans_corrected += nans;
                            self.step_nans += nans;
                            self.step_severe += nans;
                            for _ in 0..nans {
                                self.hit_block(ctx.point.block);
                            }
                        }
                    }
                } else {
                    let eff = Self::escalated_scale(*scale, self.escalation);
                    let b = recording.get(&ctx.point).map(|b| b.scaled(eff));
                    self.correct(ctx.point.block, data, b);
                }
            }
        }
    }

    fn end_step(&mut self, step: usize) -> StepReport {
        // The first-token profile is complete once step 0 ends: validate it
        // against the architectural priors before it gates any correction,
        // so a fault injected during profiling cannot disable protection.
        if step == 0 {
            if let BoundsMode::FirstToken { recording, .. } = &mut self.mode {
                self.stats.bound_repairs += recording.enforce_integrity() as u64;
            }
        }
        let clamps = std::mem::take(&mut self.step_clamps);
        let nans = std::mem::take(&mut self.step_nans);
        let severe = std::mem::take(&mut self.step_severe);
        let block_hits = std::mem::take(&mut self.step_block_hits);
        let verdict = if severe > 0 || clamps + nans >= self.storm_threshold {
            AnomalyVerdict::Storm
        } else if clamps + nans > 0 {
            AnomalyVerdict::Corrected
        } else {
            AnomalyVerdict::Clean
        };
        StepReport {
            clamps,
            nans,
            verdict,
            block_hits,
        }
    }

    fn on_rollback(&mut self, _step: usize, _attempt: u32) {
        self.escalation += 1;
        // Escalated re-decode: widen coverage to activation outputs (their
        // step-0 bounds were recorded above) and tighten the online scale.
        self.coverage.activations = true;
        self.stats.escalations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::{LayerKind, TapPoint};
    use ft2_tensor::DType;

    fn ctx(step: usize, layer: LayerKind, hook: HookKind) -> TapCtx {
        TapCtx {
            point: TapPoint { block: 0, layer },
            hook,
            step,
            first_pos: 0,
            dtype: DType::F16,
        }
    }

    fn vproj_coverage() -> Coverage {
        Coverage::linears(vec![LayerKind::VProj])
    }

    #[test]
    fn online_mode_records_then_protects() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        // Step 0: values recorded, nothing clipped.
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.as_slice(), &[-1.0, 0.5, 2.0]);
        let b = p
            .current_bounds(&TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            })
            .unwrap();
        assert_eq!(b.lo, -2.0); // -1 scaled by 2
        assert_eq!(b.hi, 4.0); // 2 scaled by 2

        // Step 1: out-of-bound value clamped to the (scaled) bound.
        let mut m = Matrix::from_vec(1, 3, vec![100.0, -100.0, 1.0]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.as_slice(), &[4.0, -2.0, 1.0]);
        assert_eq!(p.stats.clipped, 2);
    }

    #[test]
    fn nan_corrected_even_during_first_token() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 2, vec![f32::NAN, 1.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.as_slice(), &[0.0, 1.0]);
        assert_eq!(p.stats.nans_corrected, 1);
        // The NaN did not pollute the recorded bounds.
        let b = p
            .current_bounds(&TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            })
            .unwrap();
        assert_eq!(b.hi, 2.0);
    }

    #[test]
    fn uncovered_layers_are_untouched() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 1, vec![f32::NAN]);
        p.on_output(&ctx(0, LayerKind::KProj, HookKind::LinearOutput), &mut m);
        assert!(m.get(0, 0).is_nan());
        assert_eq!(p.stats.invocations, 0);
    }

    #[test]
    fn offline_mode_uses_fixed_bounds() {
        let mut store = BoundsStore::new();
        store.set(
            TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            LayerBounds { lo: -1.0, hi: 1.0 },
        );
        let mut p = Protector::offline(
            vproj_coverage(),
            store,
            Correction::ClampToBound,
            NanPolicy::ToZero,
        );
        // Protects from step 0 (bounds already known).
        let mut m = Matrix::from_vec(1, 2, vec![5.0, -0.5]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.as_slice(), &[1.0, -0.5]);
    }

    #[test]
    fn clip_to_zero_policy() {
        let mut store = BoundsStore::new();
        store.set(
            TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            LayerBounds { lo: -1.0, hi: 1.0 },
        );
        let mut p = Protector::offline(
            vproj_coverage(),
            store,
            Correction::ClipToZero,
            NanPolicy::ToZero,
        );
        let mut m = Matrix::from_vec(1, 2, vec![5.0, 0.5]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.5]);
    }

    #[test]
    fn nan_keep_policy_propagates() {
        let mut store = BoundsStore::new();
        store.set(
            TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            },
            LayerBounds { lo: -1.0, hi: 1.0 },
        );
        let mut p = Protector::offline(
            vproj_coverage(),
            store,
            Correction::ClampToBound,
            NanPolicy::Keep,
        );
        let mut m = Matrix::from_vec(1, 1, vec![f32::NAN]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert!(m.get(0, 0).is_nan());
    }

    #[test]
    fn activation_coverage_targets_activation_hooks() {
        let mut p = Protector::ft2_online(Coverage::activations_only(), 2.0);
        let mut m = Matrix::from_vec(1, 1, vec![1.0]);
        // Linear hook on FC1: not covered.
        p.on_output(&ctx(0, LayerKind::Fc1, HookKind::LinearOutput), &mut m);
        assert_eq!(p.stats.invocations, 0);
        // Activation hook on FC1: covered.
        p.on_output(&ctx(0, LayerKind::Fc1, HookKind::ActivationOutput), &mut m);
        assert_eq!(p.stats.invocations, 1);
    }

    #[test]
    fn benign_clamp_yields_corrected_verdict() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(p.end_step(0).verdict, AnomalyVerdict::Clean);
        // 5.0 is outside the scaled bound [-2, 4] but well inside the
        // severe bound [-16, 32]: corrected, not a storm.
        let mut m = Matrix::from_vec(1, 1, vec![5.0]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let r = p.end_step(1);
        assert_eq!(r.clamps, 1);
        assert_eq!(r.verdict, AnomalyVerdict::Corrected);
        // Counters reset between steps.
        assert_eq!(p.end_step(2), StepReport::default());
    }

    #[test]
    fn block_hits_attribute_corrections_to_the_faulting_block() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut c0 = ctx(0, LayerKind::VProj, HookKind::LinearOutput);
        let mut c3 = ctx(0, LayerKind::VProj, HookKind::LinearOutput);
        c3.point.block = 3;
        // Step 0: profile both blocks.
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&c0, &mut m);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&c3, &mut m);
        let _ = p.end_step(0);
        // Step 1: one clamp on block 3 only.
        c0.step = 1;
        c3.step = 1;
        let mut m = Matrix::from_vec(1, 1, vec![1.0]);
        p.on_output(&c0, &mut m);
        let mut m = Matrix::from_vec(1, 1, vec![5.0]);
        p.on_output(&c3, &mut m);
        let r = p.end_step(1);
        assert_eq!(r.hit_blocks().collect::<Vec<_>>(), vec![(3, 1)]);
        // Counters reset between steps.
        assert_eq!(p.end_step(2).hit_blocks().count(), 0);
    }

    #[test]
    fn severe_excursion_storms_even_with_one_clamp() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let _ = p.end_step(0);
        // An exponent-bit-style excursion: far beyond 8× the scaled bound.
        let mut m = Matrix::from_vec(1, 1, vec![1.0e4]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let r = p.end_step(1);
        assert_eq!(r.clamps, 1);
        assert_eq!(r.verdict, AnomalyVerdict::Storm);
    }

    #[test]
    fn clamp_burst_reaching_threshold_storms() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0).with_storm_threshold(4);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let _ = p.end_step(0);
        // Four benign clips (inside the severe bound) hit the threshold.
        let mut m = Matrix::from_vec(1, 4, vec![5.0, 5.0, -3.0, 6.0]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let r = p.end_step(1);
        assert_eq!(r.clamps, 4);
        assert_eq!(r.verdict, AnomalyVerdict::Storm);
    }

    #[test]
    fn corrected_nan_is_always_severe() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let _ = p.end_step(0);
        let mut m = Matrix::from_vec(1, 1, vec![f32::NAN]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let r = p.end_step(1);
        assert_eq!(r.nans, 1);
        assert_eq!(r.verdict, AnomalyVerdict::Storm);
    }

    #[test]
    fn poisoned_first_token_profile_is_repaired() {
        // A fault during the profiling token records an absurd bound; the
        // end-of-step-0 integrity guard replaces it with the static prior,
        // so later out-of-bound values are still clamped.
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 2.0, 1.0e30]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let r0 = p.end_step(0);
        assert_eq!(p.stats.bound_repairs, 1);
        // Step 0 itself cannot clamp (no bounds yet).
        assert_eq!(r0.clamps, 0);
        let b = p
            .current_bounds(&TapPoint {
                block: 0,
                layer: LayerKind::VProj,
            })
            .unwrap();
        assert!(b.hi.is_finite());
        // A later excursion is caught by the repaired (prior) bound.
        let mut m = Matrix::from_vec(1, 1, vec![1.0e4]);
        p.on_output(&ctx(1, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert!(m.get(0, 0) <= crate::bounds::prior_cap(LayerKind::VProj) * 2.0);
        assert_eq!(p.stats.clipped, 1);
    }

    #[test]
    fn clean_profile_is_not_repaired() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        let _ = p.end_step(0);
        assert_eq!(p.stats.bound_repairs, 0);
    }

    #[test]
    fn rollback_escalation_tightens_scale_and_covers_activations() {
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]);
        p.on_output(&ctx(0, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        // Activation outputs are recorded at step 0 even when uncovered...
        let mut act = Matrix::from_vec(1, 2, vec![0.0, 3.0]);
        p.on_output(
            &ctx(0, LayerKind::Fc1, HookKind::ActivationOutput),
            &mut act,
        );
        assert_eq!(p.stats.invocations, 1); // recording is not an invocation
        let _ = p.end_step(0);

        let point = TapPoint {
            block: 0,
            layer: LayerKind::VProj,
        };
        assert_eq!(p.current_bounds(&point).unwrap().hi, 4.0); // 2 × scale 2
        p.on_rollback(1, 0);
        assert_eq!(p.stats.escalations, 1);
        // Scale tightens 2.0 → 1.5: bound hi becomes 3.0.
        assert_eq!(p.current_bounds(&point).unwrap().hi, 3.0);
        // ...so the escalated re-decode can protect them.
        let mut act = Matrix::from_vec(1, 1, vec![1.0e4]);
        p.on_output(
            &ctx(1, LayerKind::Fc1, HookKind::ActivationOutput),
            &mut act,
        );
        assert_eq!(p.stats.clipped, 1);
        assert!(act.get(0, 0) < 1.0e4);
    }

    #[test]
    fn online_without_observation_does_not_clip() {
        // If step 0 never visited this layer (cannot happen in practice but
        // must be safe), later steps see no bounds and leave values alone.
        let mut p = Protector::ft2_online(vproj_coverage(), 2.0);
        let mut m = Matrix::from_vec(1, 1, vec![1e4]);
        p.on_output(&ctx(3, LayerKind::VProj, HookKind::LinearOutput), &mut m);
        assert_eq!(m.get(0, 0), 1e4);
        assert_eq!(p.stats.clipped, 0);
    }
}
