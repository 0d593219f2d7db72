//! Stored-state taps: hooks over weights and the KV cache *between*
//! forward passes.
//!
//! [`crate::hooks::LayerTap`] intercepts computation-path state (layer
//! outputs) — transient by construction, since every forward pass recomputes
//! it. Persistent faults instead live in *stored* state: weight matrices and
//! cached K/V rows that every subsequent step re-reads. [`StateTap`] is the
//! interception point for that state class: fault injectors corrupt it,
//! integrity scrubbers and KV guards verify and repair it, and the engine's
//! recovery ladder calls [`StateTap::on_repair`] as its last rung before
//! declaring a generation recovery-failed.

use crate::engine::KvCache;
use crate::weights::ModelWeights;
use ft2_tensor::DType;

/// Context handed to state taps, granting access to the mutable stored
/// state of the current generation plus the read-only golden checkpoint.
pub struct StateCtx<'a> {
    /// Current generation step (0 = prefill).
    pub step: usize,
    /// Prompt length of the generation (cache positions `0..prompt_len`
    /// hold prompt tokens).
    pub prompt_len: usize,
    /// The live, possibly corrupted, working copy of the weights.
    pub weights: &'a mut ModelWeights,
    /// The live KV cache.
    pub cache: &'a mut KvCache,
    /// The pristine checkpoint weights (repair source). Never mutated.
    pub golden: &'a ModelWeights,
    /// Storage precision of the model (faults corrupt this format).
    pub dtype: DType,
}

/// What a state tap observed and did during one pass — and what a
/// [`crate::shard::ShardTap`] reports of its scrubs and repairs (with
/// `kv_invalid_from` left `None`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateReport {
    /// Weight tiles whose checksum was re-verified this pass.
    pub scrubbed_tiles: u64,
    /// Weight tiles found corrupted and restored from the golden copy.
    pub weight_repairs: u64,
    /// Lowest cache position found corrupted, if any. The engine reacts by
    /// invalidating positions `kv_invalid_from..` and re-decoding them from
    /// the known token sequence.
    pub kv_invalid_from: Option<usize>,
}

impl StateReport {
    /// Merge another tap's report: counts add, the invalidation point takes
    /// the minimum (repair must restart at the earliest poisoned position).
    pub fn merge(&mut self, other: &StateReport) {
        self.scrubbed_tiles += other.scrubbed_tiles;
        self.weight_repairs += other.weight_repairs;
        self.kv_invalid_from = match (self.kv_invalid_from, other.kv_invalid_from) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A hook over stored state (weights, KV cache), fired by the engine
/// around every generation step.
pub trait StateTap {
    /// Called *before* the forward pass of each step (including re-decode
    /// attempts). Injectors corrupt stored state here; guards and scrubbers
    /// verify it here, so corruption introduced by an earlier tap in the
    /// same pass is caught before the forward pass reads it.
    fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport;

    /// Called *after* the forward pass of each step completes. The KV guard
    /// seals the freshly appended cache rows here.
    fn on_step_end(&mut self, _ctx: &mut StateCtx<'_>) {}

    /// Full verification/repair sweep — the engine's repair-and-retry
    /// rung (see [`crate::engine::RecoveryPolicy::repair`]). Scrubbers
    /// verify every tile (not just the per-step budget) and restore
    /// mismatches from the golden copy; guards re-verify every sealed row.
    fn on_repair(&mut self, _ctx: &mut StateCtx<'_>) -> StateReport {
        StateReport::default()
    }

    /// The engine truncated the KV cache to `len` positions (token rollback
    /// or poisoned-page invalidation). Guards drop their seals past `len`.
    fn on_cache_truncated(&mut self, _len: usize) {}

    /// The engine is rolling back `step` for re-decode `attempt` (0-based).
    fn on_rollback(&mut self, _step: usize, _attempt: u32) {}
}

/// An ordered list of state taps, applied in registration order.
#[derive(Default)]
pub struct StateTapList<'a> {
    taps: Vec<&'a mut dyn StateTap>,
}

impl<'a> StateTapList<'a> {
    /// Empty state-tap list.
    pub fn new() -> Self {
        StateTapList { taps: Vec::new() }
    }

    /// Register a tap; later registrations run after earlier ones (so an
    /// injector registered before a guard is caught by the same pass).
    pub fn push(&mut self, tap: &'a mut dyn StateTap) -> &mut Self {
        self.taps.push(tap);
        self
    }

    /// Number of registered taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True when no taps are registered. The engine skips weight cloning
    /// and all state passes in that case, so the empty list is free.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Run every tap's pre-forward pass, merging reports.
    pub fn on_step_state(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        let mut report = StateReport::default();
        for tap in &mut self.taps {
            report.merge(&tap.on_step_state(ctx));
        }
        report
    }

    /// Run every tap's post-forward pass.
    pub fn on_step_end(&mut self, ctx: &mut StateCtx<'_>) {
        for tap in &mut self.taps {
            tap.on_step_end(ctx);
        }
    }

    /// Run every tap's full repair sweep, merging reports.
    pub fn on_repair(&mut self, ctx: &mut StateCtx<'_>) -> StateReport {
        let mut report = StateReport::default();
        for tap in &mut self.taps {
            report.merge(&tap.on_repair(ctx));
        }
        report
    }

    /// Tell every tap the cache was truncated to `len` positions.
    pub fn notify_truncate(&mut self, len: usize) {
        for tap in &mut self.taps {
            tap.on_cache_truncated(len);
        }
    }

    /// Tell every tap the engine is rolling back `step` for re-decode
    /// `attempt`.
    pub fn notify_rollback(&mut self, step: usize, attempt: u32) {
        for tap in &mut self.taps {
            tap.on_rollback(step, attempt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_adds_counts_and_takes_min_invalidation() {
        let mut a = StateReport {
            scrubbed_tiles: 3,
            weight_repairs: 1,
            kv_invalid_from: Some(7),
        };
        a.merge(&StateReport {
            scrubbed_tiles: 2,
            weight_repairs: 0,
            kv_invalid_from: Some(4),
        });
        assert_eq!(a.scrubbed_tiles, 5);
        assert_eq!(a.weight_repairs, 1);
        assert_eq!(a.kv_invalid_from, Some(4));

        let mut b = StateReport::default();
        b.merge(&a);
        assert_eq!(b.kv_invalid_from, Some(4));
        b.merge(&StateReport::default());
        assert_eq!(b.kv_invalid_from, Some(4));
    }

    #[test]
    fn empty_list_is_free() {
        let taps = StateTapList::new();
        assert!(taps.is_empty());
        assert_eq!(taps.len(), 0);
    }
}
