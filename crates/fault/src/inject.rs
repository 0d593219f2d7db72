//! The fault-injection taps.
//!
//! Two injectors cover the fault-target taxonomy:
//!
//! * [`FaultInjector`] — a [`LayerTap`] corrupting a *computed* linear-layer
//!   output ([`FaultTarget::Activation`]). Registered as the *first* tap on
//!   the model so that a protection tap registered after it sees the
//!   corrupted output — the same ordering as a PyTorch forward hook that
//!   perturbs the output before Ranger-style hooks run.
//! * [`StateFaultInjector`] — a [`StateTap`] corrupting *stored* state
//!   ([`FaultTarget::Weight`] / [`FaultTarget::KvCache`]). Registered as the
//!   first state tap so that integrity guards registered after it observe
//!   the corruption in the same pre-forward pass ("checked on read").
//!
//! Both honour the [`FaultDuration`] schedule: transient faults strike once
//! (and stored-state transients are restored at end of step, so a rollback
//! re-decode runs clean), intermittent faults re-strike periodically (at
//! most once per distinct step), and persistent faults endure — a stuck
//! activation re-corrupts every forward pass including re-decodes, and a
//! persistent stored-state flip stays resident until the integrity layer
//! repairs it.

use crate::model::{FaultDuration, FaultTarget};
use crate::site::FaultSite;
use ft2_model::{HookKind, LayerKind, LayerTap, StateCtx, StateReport, StateTap, TapCtx};
use ft2_tensor::Matrix;

/// Corrupts one element of one layer's computed output, on the schedule the
/// site's [`FaultDuration`] dictates.
pub struct FaultInjector {
    site: FaultSite,
    fired: bool,
    /// Step of the most recent strike (guards against double-striking the
    /// same step during intermittent activity or re-decodes).
    last_strike: Option<usize>,
    /// Total strikes delivered (1 for transient; ≥ 1 for the others).
    pub strikes: u64,
    /// The value before the first corruption (for logging/debugging).
    pub original: Option<f32>,
    /// The value after the first corruption.
    pub corrupted: Option<f32>,
}

impl FaultInjector {
    /// Build an injector for a site.
    pub fn new(site: FaultSite) -> Self {
        debug_assert_eq!(
            site.target,
            FaultTarget::Activation,
            "FaultInjector handles activation faults; use StateFaultInjector for stored state"
        );
        FaultInjector {
            site,
            fired: false,
            last_strike: None,
            strikes: 0,
            original: None,
            corrupted: None,
        }
    }

    /// Has the fault been injected at least once?
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The target site.
    pub fn site(&self) -> &FaultSite {
        &self.site
    }

    fn due(&self, step: usize) -> bool {
        match self.site.duration {
            // One strike, ever: a rollback re-decode of the struck step runs
            // clean, which is what makes transients recoverable.
            FaultDuration::Transient => !self.fired && step == self.site.step,
            // Periodic strikes, at most one per distinct step — a re-decode
            // of an active step is clean, like a transient.
            FaultDuration::Intermittent { .. } => {
                self.site.duration.active_at(self.site.step, step)
                    && self.last_strike != Some(step)
            }
            // A stuck functional unit: every forward pass from the strike
            // step on is corrupted, *including* rollback re-decodes — which
            // is exactly why rollback alone cannot survive it.
            FaultDuration::Persistent => step >= self.site.step,
        }
    }
}

impl LayerTap for FaultInjector {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        if ctx.hook != HookKind::LinearOutput
            || ctx.point != self.site.point
            || !self.due(ctx.step)
        {
            return;
        }
        // The sampler draws elements within this step's output shape; guard
        // with a modulo so a mismatched prompt length cannot go out of
        // bounds.
        let idx = self.site.element % data.len();
        let before = data.as_slice()[idx];
        let v = ctx.dtype.flip(before, &self.site.bits);
        data.as_mut_slice()[idx] = v;
        if !self.fired {
            self.original = Some(before);
            self.corrupted = Some(v);
        }
        self.fired = true;
        self.last_strike = Some(ctx.step);
        self.strikes += 1;
    }
}

/// Corrupts one element of *stored* state — a weight-matrix entry or a
/// cached K/V row — in the pre-forward state pass, on the site's
/// [`FaultDuration`] schedule.
///
/// Register this as the first state tap: an integrity guard registered
/// after it then observes the corruption in the same pass, before the
/// forward consumes the poisoned state.
pub struct StateFaultInjector {
    site: FaultSite,
    fired: bool,
    last_strike: Option<usize>,
    /// `(resolved flat index, original value)` pending restoration at end of
    /// step (transient/intermittent strikes only).
    pending_restore: Option<(usize, f32)>,
    /// Total strikes delivered.
    pub strikes: u64,
    /// The value before the first corruption.
    pub original: Option<f32>,
    /// The value after the first corruption.
    pub corrupted: Option<f32>,
}

impl StateFaultInjector {
    /// Build a stored-state injector for a site targeting
    /// [`FaultTarget::Weight`] or [`FaultTarget::KvCache`].
    pub fn new(site: FaultSite) -> Self {
        debug_assert_ne!(
            site.target,
            FaultTarget::Activation,
            "activation faults use the FaultInjector layer tap"
        );
        StateFaultInjector {
            site,
            fired: false,
            last_strike: None,
            pending_restore: None,
            strikes: 0,
            original: None,
            corrupted: None,
        }
    }

    /// Has the fault been injected at least once?
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The target site.
    pub fn site(&self) -> &FaultSite {
        &self.site
    }

    fn due(&self, step: usize) -> bool {
        match self.site.duration {
            FaultDuration::Transient => !self.fired && step == self.site.step,
            FaultDuration::Intermittent { .. } => {
                self.site.duration.active_at(self.site.step, step)
                    && self.last_strike != Some(step)
            }
            // Persistent stored-state corruption endures on its own — one
            // strike suffices, and every later read sees it until the
            // integrity layer repairs the location.
            FaultDuration::Persistent => !self.fired && step >= self.site.step,
        }
    }

    /// The storage this site targets, as a mutable flat f32 buffer.
    fn storage<'c>(&self, ctx: &'c mut StateCtx<'_>) -> &'c mut [f32] {
        let b = self.site.point.block;
        match self.site.target {
            FaultTarget::Weight => ctx
                .weights
                .blocks[b]
                .layer_mut(self.site.point.layer)
                .expect("sampled weight layer missing")
                .weight
                .as_mut_slice(),
            FaultTarget::KvCache => {
                let blk = ctx.cache.block_mut(b);
                match self.site.point.layer {
                    LayerKind::KProj => blk.k.as_mut_slice(),
                    _ => blk.v.as_mut_slice(),
                }
            }
            FaultTarget::Activation => unreachable!("checked in new()"),
        }
    }
}

impl StateTap for StateFaultInjector {
    fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        if !self.due(ctx.step) {
            return StateReport::default();
        }
        let dtype = ctx.dtype;
        let bits = self.site.bits.clone();
        let element = self.site.element;
        let duration = self.site.duration;
        let data = self.storage(ctx);
        if data.is_empty() {
            return StateReport::default();
        }
        let idx = element % data.len();
        let before = data[idx];
        let v = dtype.flip(before, &bits);
        data[idx] = v;
        if !self.fired {
            self.original = Some(before);
            self.corrupted = Some(v);
        }
        if !matches!(duration, FaultDuration::Persistent) {
            // Bounded-duration upsets vanish when the step ends; remember
            // the resolved index so the restore hits the same location even
            // if the buffer has since grown.
            self.pending_restore = Some((idx, before));
        }
        self.fired = true;
        self.last_strike = Some(ctx.step);
        self.strikes += 1;
        StateReport::default()
    }

    fn on_step_end(&mut self, ctx: &mut StateCtx<'_>) {
        if let Some((idx, orig)) = self.pending_restore.take() {
            let data = self.storage(ctx);
            // A guard-triggered rebuild may have truncated the buffer (and
            // already restored clean contents) — only write in bounds.
            if idx < data.len() {
                data[idx] = orig;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::{KvCache, LayerKind, ModelConfig, TapPoint};
    use ft2_model::weights::ModelWeights;
    use ft2_tensor::DType;

    fn ctx(step: usize, layer: LayerKind) -> TapCtx {
        TapCtx {
            point: TapPoint { block: 0, layer },
            hook: HookKind::LinearOutput,
            step,
            first_pos: 0,
            dtype: DType::F16,
        }
    }

    fn site(step: usize, layer: LayerKind, element: usize, bits: Vec<u32>) -> FaultSite {
        FaultSite {
            step,
            point: TapPoint { block: 0, layer },
            element,
            bits,
            duration: FaultDuration::Transient,
            target: FaultTarget::Activation,
        }
    }

    #[test]
    fn injects_exactly_once_at_matching_site() {
        let mut inj = FaultInjector::new(site(1, LayerKind::VProj, 2, vec![14]));
        let mut m = Matrix::from_vec(1, 4, vec![0.5, 0.5, 0.5, 0.5]);

        // Wrong step: no-op.
        inj.on_output(&ctx(0, LayerKind::VProj), &mut m);
        assert!(!inj.fired());
        assert_eq!(m.as_slice(), &[0.5; 4]);

        // Wrong layer: no-op.
        inj.on_output(&ctx(1, LayerKind::KProj), &mut m);
        assert!(!inj.fired());

        // Match: 0.5 with bit 14 flipped becomes a huge value.
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert!(inj.fired());
        assert_eq!(inj.original, Some(0.5));
        assert!(m.get(0, 2) > 1e4);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(0, 3), 0.5);

        // Fires only once: a second matching call is a no-op.
        let corrupted = m.get(0, 2);
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 2), corrupted);
        assert_eq!(inj.strikes, 1);
    }

    #[test]
    fn injection_respects_storage_format() {
        // 1.5 in FP16 with top exponent bit flipped is NaN.
        let mut inj = FaultInjector::new(site(0, LayerKind::Fc1, 0, vec![14]));
        let mut m = Matrix::from_vec(1, 1, vec![1.5]);
        inj.on_output(&ctx(0, LayerKind::Fc1), &mut m);
        assert!(m.get(0, 0).is_nan());
        assert_eq!(inj.corrupted.map(f32::is_nan), Some(true));
    }

    #[test]
    fn double_bit_flips_both() {
        // Mantissa LSB flips: small perturbation of 1.0 -> stays close.
        let mut inj = FaultInjector::new(site(0, LayerKind::Fc1, 0, vec![0, 1]));
        let mut m = Matrix::from_vec(1, 1, vec![1.0]);
        inj.on_output(&ctx(0, LayerKind::Fc1), &mut m);
        let v = m.get(0, 0);
        assert!(v != 1.0 && (v - 1.0).abs() < 0.01, "v={v}");
    }

    #[test]
    fn element_index_wraps_safely() {
        let mut inj = FaultInjector::new(site(0, LayerKind::Fc1, 10, vec![15]));
        let mut m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        inj.on_output(&ctx(0, LayerKind::Fc1), &mut m);
        // 10 % 4 == 2: sign bit flip of 3.0.
        assert_eq!(m.get(0, 2), -3.0);
    }

    #[test]
    fn persistent_activation_restrikes_every_step() {
        let mut s = site(1, LayerKind::VProj, 0, vec![15]);
        s.duration = FaultDuration::Persistent;
        let mut inj = FaultInjector::new(s);
        let mut m = Matrix::from_vec(1, 1, vec![2.0]);
        inj.on_output(&ctx(0, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), 2.0); // before the strike step
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), -2.0);
        // Re-decode of the same step strikes again (stuck unit).
        m.set(0, 0, 2.0);
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), -2.0);
        inj.on_output(&ctx(5, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), 2.0); // flipped back: strikes every pass
        assert_eq!(inj.strikes, 3);
    }

    #[test]
    fn intermittent_activation_strikes_once_per_active_step() {
        let mut s = site(1, LayerKind::VProj, 0, vec![15]);
        s.duration = FaultDuration::Intermittent { period: 2 };
        let mut inj = FaultInjector::new(s);
        let mut m = Matrix::from_vec(1, 1, vec![1.0]);
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), -1.0);
        // Same step again (re-decode): clean.
        m.set(0, 0, 1.0);
        inj.on_output(&ctx(1, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), 1.0);
        // Off-period step: clean. Next active step (3): strikes.
        inj.on_output(&ctx(2, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), 1.0);
        inj.on_output(&ctx(3, LayerKind::VProj), &mut m);
        assert_eq!(m.get(0, 0), -1.0);
        assert_eq!(inj.strikes, 2);
    }

    fn state_parts() -> (ModelConfig, ModelWeights, ModelWeights, KvCache) {
        let config = ModelConfig::tiny_opt();
        let golden = ModelWeights::build(&config);
        let live = golden.clone();
        let cache = KvCache::new(&config);
        (config, golden, live, cache)
    }

    #[test]
    fn persistent_weight_fault_endures_across_steps() {
        let (_, golden, mut live, mut cache) = state_parts();
        let mut s = site(1, LayerKind::Fc1, 5, vec![15]);
        s.duration = FaultDuration::Persistent;
        s.target = FaultTarget::Weight;
        let mut inj = StateFaultInjector::new(s);
        let before = live.blocks[0].fc.as_ref().unwrap().0.weight.get_flat(5);
        for step in 1..3 {
            let mut ctx = StateCtx {
                step,
                prompt_len: 4,
                weights: &mut live,
                cache: &mut cache,
                golden: &golden,
                dtype: DType::F16,
            };
            inj.on_step_state(&mut ctx);
            inj.on_step_end(&mut ctx);
        }
        assert_eq!(inj.strikes, 1);
        let after = live.blocks[0].fc.as_ref().unwrap().0.weight.get_flat(5);
        assert_eq!(after, -before, "sign flip must persist past end-of-step");
    }

    #[test]
    fn transient_weight_fault_is_restored_at_step_end() {
        let (_, golden, mut live, mut cache) = state_parts();
        let mut s = site(1, LayerKind::VProj, 9, vec![14]);
        s.target = FaultTarget::Weight;
        let mut inj = StateFaultInjector::new(s);
        let before = live.blocks[0].v_proj.weight.get_flat(9);
        let mut ctx = StateCtx {
            step: 1,
            prompt_len: 4,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        inj.on_step_state(&mut ctx);
        assert_ne!(ctx.weights.blocks[0].v_proj.weight.get_flat(9), before);
        inj.on_step_end(&mut ctx);
        assert_eq!(live.blocks[0].v_proj.weight.get_flat(9), before);
        // Later steps: no re-strike.
        let mut ctx = StateCtx {
            step: 2,
            prompt_len: 4,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        inj.on_step_state(&mut ctx);
        assert_eq!(live.blocks[0].v_proj.weight.get_flat(9), before);
        assert_eq!(inj.strikes, 1);
    }

    #[test]
    fn kv_fault_targets_the_cached_rows() {
        let (config, golden, mut live, mut cache) = state_parts();
        // Put 4 rows in every block's cache.
        let rows = Matrix::from_vec(4, config.hidden, vec![1.0; 4 * config.hidden]);
        for b in 0..cache.num_blocks() {
            let blk = cache.block_mut(b);
            blk.k.append_rows(&rows);
            blk.v.append_rows(&rows);
        }
        let mut s = site(1, LayerKind::KProj, 3, vec![15]);
        s.duration = FaultDuration::Persistent;
        s.target = FaultTarget::KvCache;
        let mut inj = StateFaultInjector::new(s);
        let mut ctx = StateCtx {
            step: 1,
            prompt_len: 4,
            weights: &mut live,
            cache: &mut cache,
            golden: &golden,
            dtype: DType::F16,
        };
        inj.on_step_state(&mut ctx);
        inj.on_step_end(&mut ctx);
        assert_eq!(cache.block(0).k.get_flat(3), -1.0);
        assert_eq!(cache.block(0).v.get_flat(3), 1.0, "V untouched for a K site");
    }
}
