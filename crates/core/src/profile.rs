//! Offline bound profiling (§3.2) — what the baselines require and FT2
//! eliminates.
//!
//! The store returned here feeds `Protector::offline`. Profiling runs the
//! model over a profiling split (the paper uses 20% of the training set)
//! and records the min/max of every linear and activation output. The
//! wall-clock cost of this pass at paper scale is what Fig. 4 quantifies;
//! `ft2-hw` estimates it from FLOP counts.

use crate::bounds::BoundsStore;
use ft2_model::{HookKind, LayerTap, Model, TapCtx, TapList, TapPoint};
use ft2_parallel::WorkStealingPool;
use ft2_tensor::Matrix;

/// A tap that accumulates min/max per tap point. Activation-output hooks
/// are stored under a synthetic point so Ranger-style coverage can use
/// them; we keep them in a second store keyed identically but maintained
/// separately.
struct MinMaxTap {
    linear: BoundsStore,
    activations: BoundsStore,
}

impl LayerTap for MinMaxTap {
    fn on_output(&mut self, ctx: &TapCtx, data: &mut Matrix) {
        match ctx.hook {
            HookKind::LinearOutput => self.linear.observe_all(ctx.point, data.as_slice()),
            HookKind::ActivationOutput => self.activations.observe_all(ctx.point, data.as_slice()),
        }
    }
}

/// The result of an offline profiling pass.
#[derive(Clone, Debug, Default)]
pub struct OfflineBounds {
    /// Bounds of linear-layer outputs.
    pub linear: BoundsStore,
    /// Bounds of MLP activation outputs (keyed by the preceding linear's
    /// tap point).
    pub activations: BoundsStore,
    /// Number of profiling generations performed.
    pub inputs_profiled: usize,
    /// Bounds replaced by the static architectural prior because they
    /// failed the integrity check (non-finite, inverted, or implausibly
    /// large — a poisoned profiling pass).
    pub bounds_repaired: usize,
}

impl OfflineBounds {
    /// Bounds for a point under a given hook kind.
    pub fn store_for(&self, hook: HookKind) -> &BoundsStore {
        match hook {
            HookKind::LinearOutput => &self.linear,
            HookKind::ActivationOutput => &self.activations,
        }
    }
}

/// Profile bounds by running full generations over `prompts` (parallel over
/// prompts, merged at the end — min/max merging is exact).
pub fn offline_profile(
    model: &Model,
    prompts: &[Vec<u32>],
    gen_tokens: usize,
    pool: &WorkStealingPool,
) -> OfflineBounds {
    let partials: Vec<(BoundsStore, BoundsStore)> = pool.map(prompts, 1, |_, prompt| {
        let mut tap = MinMaxTap {
            linear: BoundsStore::new(),
            activations: BoundsStore::new(),
        };
        {
            let mut taps = TapList::new();
            taps.push(&mut tap);
            let _ = model.generate(prompt, gen_tokens, &mut taps);
        }
        (tap.linear, tap.activations)
    });
    let mut out = OfflineBounds {
        inputs_profiled: prompts.len(),
        ..Default::default()
    };
    for (lin, act) in &partials {
        out.linear.merge(lin);
        out.activations.merge(act);
    }
    // Same integrity net as the online first-token pass: a fault (or Inf
    // overflow) during profiling must not yield a bound that disables the
    // range check for every later campaign trial.
    out.bounds_repaired = out.linear.enforce_integrity() + out.activations.enforce_integrity();
    out
}

/// Convenience: profile and return only linear-output bounds for the given
/// points (test helper and Fig. 3 driver).
pub fn profile_linear_bounds(
    model: &Model,
    prompts: &[Vec<u32>],
    gen_tokens: usize,
    pool: &WorkStealingPool,
) -> BoundsStore {
    offline_profile(model, prompts, gen_tokens, pool).linear
}

/// Sanity description of a profiled store (layer count and a couple of
/// example points), used in reports.
pub fn describe(store: &BoundsStore) -> String {
    let mut points: Vec<&TapPoint> = store.iter().map(|(p, _)| p).collect();
    points.sort();
    let mut s = format!("{} layers, {} B", store.len(), store.memory_bytes());
    if let Some(p) = points.first() {
        let b = store.get(p).unwrap();
        s.push_str(&format!(
            "; e.g. block {} {}: [{:.3}, {:.3}]",
            p.block,
            p.layer.name(),
            b.lo,
            b.hi
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::ModelConfig;

    #[test]
    fn profiling_covers_every_block_linear() {
        let config = ModelConfig::tiny_opt();
        let n_points = config.total_block_linears();
        let model = Model::new(config);
        let pool = WorkStealingPool::new(2);
        let prompts = vec![vec![1u32, 2, 3, 4], vec![9, 8, 7]];
        let bounds = offline_profile(&model, &prompts, 6, &pool);
        assert_eq!(bounds.linear.len(), n_points);
        assert_eq!(bounds.inputs_profiled, 2);
        // A clean profiling run never trips the integrity guard.
        assert_eq!(bounds.bounds_repaired, 0);
        // OPT has one activation point per block (post-ReLU on FC1).
        assert_eq!(bounds.activations.len(), 2);
        // Every recorded bound is initialised and finite.
        for (_, b) in bounds.linear.iter() {
            assert!(b.is_initialised());
            assert!(b.lo.is_finite() && b.hi.is_finite());
            assert!(b.lo <= b.hi);
        }
    }

    #[test]
    fn more_prompts_never_shrink_bounds() {
        let model = Model::new(ModelConfig::tiny_llama());
        let pool = WorkStealingPool::new(2);
        let small = vec![vec![1u32, 2, 3]];
        let big = vec![vec![1u32, 2, 3], vec![50, 60, 70, 80], vec![5, 15, 25]];
        let b_small = profile_linear_bounds(&model, &small, 5, &pool);
        let b_big = profile_linear_bounds(&model, &big, 5, &pool);
        for (p, bs) in b_small.iter() {
            let bb = b_big.get(p).unwrap();
            assert!(bb.lo <= bs.lo + 1e-6);
            assert!(bb.hi >= bs.hi - 1e-6);
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let model = Model::new(ModelConfig::tiny_opt());
        let pool = WorkStealingPool::new(3);
        let prompts = vec![vec![4u32, 5, 6, 7]];
        let a = profile_linear_bounds(&model, &prompts, 4, &pool);
        let b = profile_linear_bounds(&model, &prompts, 4, &pool);
        for (p, ba) in a.iter() {
            let bb = b.get(p).unwrap();
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn describe_is_humane() {
        let model = Model::new(ModelConfig::tiny_opt());
        let pool = WorkStealingPool::new(1);
        let bounds = profile_linear_bounds(&model, &[vec![1, 2, 3]], 3, &pool);
        let d = describe(&bounds);
        assert!(d.contains("layers"));
        assert!(d.contains("block"));
    }
}
