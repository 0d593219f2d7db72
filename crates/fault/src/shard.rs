//! Shard-scoped fault modes and the shard fault injector.
//!
//! The sharded executor ([`ft2_model::ShardedModel`]) makes each shard a
//! failure domain; this module supplies the faults that exercise it. A
//! [`ShardFault`] names the *shape* of the failure — mirroring how real
//! multi-GPU serving stacks see their accelerators fail:
//!
//! * [`ShardFault::TileCorrupt`] — stored-state corruption of one shard's
//!   weight slice (uncorrected ECC escape, stuck DRAM bits): the shard
//!   computes, but from poisoned weights.
//! * [`ShardFault::ActStorm`] — a computation-path upset that sends one
//!   shard's partial to extreme magnitudes (the activation-storm signature
//!   of §2 faults, here confined to one shard's GEMM).
//! * [`ShardFault::Hang`] — the shard stops responding (stuck stream /
//!   driver timeout): caught by the heartbeat monitor, not a deadline.
//! * [`ShardFault::Crash`] — the shard dies outright (XID-style fatal
//!   error): its task panics.
//!
//! Each composes with the [`FaultDuration`] taxonomy — transient faults
//! vanish on re-execution, intermittent ones recur with a period, and
//! persistent ones endure until repaired (TileCorrupt) or until the shard
//! is evicted (Hang/Crash). [`classify_sharded`] folds a
//! [`ShardedGeneration`] into the campaign [`Outcome`] taxonomy, including
//! the sharding-specific terminal state [`Outcome::Degraded`].

use crate::model::{FaultDuration, FaultTarget};
use crate::outcome::{Outcome, OutcomeJudge};
use ft2_model::shard::{
    PartialMut, ShardIncidentKind, ShardPartialCtx, ShardTap, ShardWeights, TaskDirective,
};
use ft2_model::ShardedGeneration;

/// Magnitude multiplier for injected shard anomalies: far above the
/// executor's anomaly threshold so detection is deterministic.
const STORM_SCALE: f32 = 1.0e9;

/// Elements corrupted by one [`ShardFault::TileCorrupt`] strike (one
/// integrity tile's worth).
const CORRUPT_ELEMS: usize = 256;

/// The shard-scoped fault modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardFault {
    /// Corrupt a tile of the shard's weight slice (stored state).
    TileCorrupt,
    /// Scale the shard's partial GEMM output to extreme magnitudes
    /// (computation path).
    ActStorm,
    /// The shard stops beating and must be cancelled by the heartbeat
    /// monitor.
    Hang,
    /// The shard's task panics.
    Crash,
}

impl ShardFault {
    /// All shard fault modes, in reporting order.
    pub const ALL: [ShardFault; 4] = [
        ShardFault::TileCorrupt,
        ShardFault::ActStorm,
        ShardFault::Hang,
        ShardFault::Crash,
    ];

    /// Display name used in reports and the harness sweep.
    pub const fn name(self) -> &'static str {
        match self {
            ShardFault::TileCorrupt => "tile-corrupt",
            ShardFault::ActStorm => "act-storm",
            ShardFault::Hang => "hang",
            ShardFault::Crash => "crash",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<ShardFault> {
        match s.to_ascii_lowercase().as_str() {
            "tile-corrupt" | "tile" => Some(ShardFault::TileCorrupt),
            "act-storm" | "storm" => Some(ShardFault::ActStorm),
            "hang" => Some(ShardFault::Hang),
            "crash" => Some(ShardFault::Crash),
            _ => None,
        }
    }

    /// The stored-tensor class this fault strikes, when it strikes one
    /// (hangs and crashes are execution failures, not state corruption).
    pub fn target(self) -> Option<FaultTarget> {
        match self {
            ShardFault::TileCorrupt => Some(FaultTarget::Weight),
            ShardFault::ActStorm => Some(FaultTarget::Activation),
            ShardFault::Hang | ShardFault::Crash => None,
        }
    }
}

/// One planned shard fault: what strikes, where, when, and for how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardFaultSpec {
    /// Shard index (under the initial partition) the fault strikes.
    pub shard: usize,
    /// Fault mode.
    pub fault: ShardFault,
    /// Generation step of the strike (0 = prefill).
    pub step: usize,
    /// Decoder block the fault is scoped to (Hang/Crash trigger on this
    /// block's dispatches; TileCorrupt/ActStorm corrupt this block's
    /// slices/partials).
    pub block: usize,
    /// Duration taxonomy: transient strikes once, intermittent recurs,
    /// persistent endures until repair or eviction.
    pub duration: FaultDuration,
}

/// The shard fault injector: a [`ShardTap`] that realises one
/// [`ShardFaultSpec`] against a sharded generation. After a degrade
/// re-partition the injector goes inert — the faulty device left the
/// replica, and shard indices have been reassigned to the survivors.
pub struct ShardFaultInjector {
    spec: ShardFaultSpec,
    /// Set once the faulty shard has been evicted (or the partition no
    /// longer contains the target shard).
    inert: bool,
    /// Transient bookkeeping: the strike already happened.
    fired: bool,
    /// Step currently being corrupted by ActStorm (first partial only).
    storm_step: Option<usize>,
    /// Backup of the weight slice TileCorrupt scribbled over, for
    /// transient restore: (element offset, clean values).
    tile_backup: Option<(usize, Vec<f32>)>,
    strikes: u32,
}

impl ShardFaultInjector {
    /// Injector for one spec.
    pub fn new(spec: ShardFaultSpec) -> ShardFaultInjector {
        ShardFaultInjector {
            spec,
            inert: false,
            fired: false,
            storm_step: None,
            tile_backup: None,
            strikes: 0,
        }
    }

    /// Times the fault actually struck (a spec aimed past the generation
    /// end never fires).
    pub fn strikes(&self) -> u32 {
        self.strikes
    }

    fn active(&self, step: usize) -> bool {
        !self.inert && self.spec.duration.active_at(self.spec.step, step)
    }

    /// The weight matrix TileCorrupt scribbles over: the target block's
    /// first present linear on the target shard.
    fn corrupt_tile(&mut self, shards: &mut [ShardWeights]) {
        let Some(sw) = shards.get_mut(self.spec.shard) else {
            self.inert = true;
            return;
        };
        let Some(bw) = sw.blocks.get_mut(self.spec.block) else {
            self.inert = true;
            return;
        };
        let lin = &mut bw.k_proj;
        let data = lin.weight.as_mut_slice();
        if data.is_empty() {
            // An empty head span leaves nothing to corrupt.
            self.inert = true;
            return;
        }
        let len = CORRUPT_ELEMS.min(data.len());
        if self.tile_backup.is_none() {
            self.tile_backup = Some((0, data[..len].to_vec()));
        }
        for v in &mut data[..len] {
            *v = STORM_SCALE;
        }
        self.strikes += 1;
    }

    fn restore_tile(&mut self, shards: &mut [ShardWeights]) {
        let Some((off, clean)) = self.tile_backup.take() else {
            return;
        };
        if let Some(sw) = shards.get_mut(self.spec.shard) {
            if let Some(bw) = sw.blocks.get_mut(self.spec.block) {
                let data = bw.k_proj.weight.as_mut_slice();
                if data.len() >= off + clean.len() {
                    data[off..off + clean.len()].copy_from_slice(&clean);
                }
            }
        }
    }
}

impl ShardTap for ShardFaultInjector {
    fn on_step_start(
        &mut self,
        step: usize,
        shards: &mut [ShardWeights],
    ) -> ft2_model::StateReport {
        if self.spec.fault == ShardFault::TileCorrupt {
            if self.active(step) {
                self.corrupt_tile(shards);
            } else if self.tile_backup.is_some() {
                // A transient/intermittent corruption lapsed: the stuck
                // pattern cleared, restore the clean bits.
                self.restore_tile(shards);
            }
        }
        ft2_model::StateReport::default()
    }

    fn directive(
        &mut self,
        step: usize,
        block: usize,
        _layer: ft2_model::LayerKind,
        shard: usize,
    ) -> TaskDirective {
        if shard != self.spec.shard || block != self.spec.block || !self.active(step) {
            return TaskDirective::Proceed;
        }
        let d = match self.spec.fault {
            ShardFault::Hang => TaskDirective::Hang,
            ShardFault::Crash => TaskDirective::Crash,
            _ => return TaskDirective::Proceed,
        };
        if self.spec.duration == FaultDuration::Transient {
            if self.fired {
                return TaskDirective::Proceed;
            }
            self.fired = true;
        }
        self.strikes += 1;
        d
    }

    fn on_partial(&mut self, ctx: &ShardPartialCtx, data: PartialMut<'_>) {
        if self.spec.fault != ShardFault::ActStorm
            || ctx.shard != self.spec.shard
            || ctx.block != self.spec.block
            || !self.active(ctx.step)
        {
            return;
        }
        match self.spec.duration {
            // Transient: one upset, gone on re-execution.
            FaultDuration::Transient => {
                if self.fired {
                    return;
                }
                self.fired = true;
            }
            // Intermittent: the first partial of each active step.
            FaultDuration::Intermittent { .. } => {
                if self.storm_step == Some(ctx.step) {
                    return;
                }
                self.storm_step = Some(ctx.step);
            }
            // Persistent: every partial this shard+block produces, so
            // re-execution and repair cannot clear it.
            FaultDuration::Persistent => {}
        }
        self.strikes += 1;
        match data {
            PartialMut::F32(m) => {
                for v in m.as_mut_slice() {
                    *v *= STORM_SCALE;
                }
            }
            PartialMut::F64(p) => {
                for v in p.iter_mut() {
                    *v *= f64::from(STORM_SCALE);
                }
            }
        }
    }

    fn on_repartition(&mut self, _shards: &[ShardWeights]) {
        // The faulty device left the replica; survivors got fresh slices
        // and new shard indices, so the spec no longer addresses anything.
        self.inert = true;
        self.tile_backup = None;
    }
}

/// Fold a sharded generation into the campaign outcome taxonomy.
///
/// Precedence: a terminal shard failure is a DUE ([`Outcome::Hang`] for
/// heartbeat-cancelled shards, [`Outcome::Crash`] otherwise — both naming
/// the shard); a completed generation that lost shards is
/// [`Outcome::Degraded`] (available, never claimed masked); otherwise the
/// token stream is judged, and a masked verdict earned through the repair
/// rung reports [`Outcome::Repaired`], one earned through shard
/// re-execution [`Outcome::Recovered`].
pub fn classify_sharded(
    reference: &[u32],
    gen: &ShardedGeneration,
    judge: &dyn OutcomeJudge,
) -> Outcome {
    if let Some(f) = gen.failed {
        return match f.kind {
            ShardIncidentKind::Hang => Outcome::Hang,
            ShardIncidentKind::Crash => Outcome::Crash {
                site: format!("shard{}", f.shard),
                message: format!("shard {} crashed at step {}", f.shard, f.step),
            },
            ShardIncidentKind::Anomaly => Outcome::Crash {
                site: format!("shard{}", f.shard),
                message: format!(
                    "shard {} anomaly unrecovered at step {}",
                    f.shard, f.step
                ),
            },
        };
    }
    if gen.shards_lost > 0 {
        return Outcome::Degraded {
            shards_lost: gen.shards_lost,
        };
    }
    let verdict = judge.classify(reference, &gen.tokens);
    if verdict.is_masked() && gen.repair_rungs > 0 {
        return Outcome::Repaired {
            repairs: gen.tiles_repaired.max(u64::from(gen.repair_rungs)),
        };
    }
    if verdict.is_masked() && gen.shard_retries > 0 {
        return Outcome::Recovered {
            retries: gen.shard_retries,
        };
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::ExactJudge;
    use ft2_model::{Model, ModelConfig, RecoveryPolicy, ShardTapList, ShardedModel};
    use ft2_parallel::WorkStealingPool;
    use std::time::Duration;

    const HEARTBEAT: Duration = Duration::from_millis(15);

    fn run(
        model: &Model,
        n: usize,
        spec: Option<ShardFaultSpec>,
        policy: RecoveryPolicy,
    ) -> ShardedGeneration {
        let pool = WorkStealingPool::new(3);
        let mut injector = spec.map(ShardFaultInjector::new);
        let mut taps = ShardTapList::new();
        if let Some(inj) = injector.as_mut() {
            taps.push(inj);
        }
        ShardedModel::new(model, n).generate_with(
            &pool,
            &[3, 14, 15, 9, 2],
            8,
            &mut taps,
            policy,
            HEARTBEAT,
        )
    }

    #[test]
    fn names_parse_roundtrip_and_targets() {
        for f in ShardFault::ALL {
            assert_eq!(ShardFault::parse(f.name()), Some(f));
        }
        assert_eq!(ShardFault::TileCorrupt.target(), Some(FaultTarget::Weight));
        assert_eq!(ShardFault::ActStorm.target(), Some(FaultTarget::Activation));
        assert_eq!(ShardFault::Crash.target(), None);
        assert_eq!(ShardFault::parse("nonsense"), None);
    }

    #[test]
    fn transient_act_storm_recovers_via_reexecution() {
        let model = Model::new(ModelConfig::tiny_opt());
        let clean = run(&model, 2, None, RecoveryPolicy::disabled());
        let spec = ShardFaultSpec {
            shard: 1,
            fault: ShardFault::ActStorm,
            step: 2,
            block: 0,
            duration: FaultDuration::Transient,
        };
        let out = run(&model, 2, Some(spec), RecoveryPolicy::retries(1));
        assert!(out.completed());
        assert_eq!(out.tokens, clean.tokens);
        assert!(out.storms >= 1);
        let outcome = classify_sharded(&clean.tokens, &out, &ExactJudge);
        assert_eq!(outcome, Outcome::Recovered { retries: out.shard_retries });
    }

    #[test]
    fn persistent_crash_with_degrade_classifies_degraded() {
        let model = Model::new(ModelConfig::tiny_opt());
        let clean = run(&model, 3, None, RecoveryPolicy::disabled());
        let spec = ShardFaultSpec {
            shard: 2,
            fault: ShardFault::Crash,
            step: 1,
            block: 0,
            duration: FaultDuration::Persistent,
        };
        let out = run(
            &model,
            3,
            Some(spec),
            RecoveryPolicy::retries(1).with_shard_degrade(),
        );
        assert!(out.completed(), "degrade must keep serving");
        assert_eq!(out.tokens.len(), clean.tokens.len());
        assert_eq!(out.shards_lost, 1);
        let outcome = classify_sharded(&clean.tokens, &out, &ExactJudge);
        assert_eq!(outcome, Outcome::Degraded { shards_lost: 1 });
    }

    #[test]
    fn persistent_crash_without_degrade_is_a_shard_due() {
        let model = Model::new(ModelConfig::tiny_opt());
        let clean = run(&model, 2, None, RecoveryPolicy::disabled());
        let spec = ShardFaultSpec {
            shard: 0,
            fault: ShardFault::Crash,
            step: 3,
            block: 0,
            duration: FaultDuration::Persistent,
        };
        let out = run(&model, 2, Some(spec), RecoveryPolicy::retries(1));
        assert!(out.failed.is_some());
        match classify_sharded(&clean.tokens, &out, &ExactJudge) {
            Outcome::Crash { site, .. } => assert_eq!(site, "shard0"),
            other => panic!("expected shard crash DUE, got {other:?}"),
        }
    }

    #[test]
    fn hang_classifies_as_hang_outcome() {
        let model = Model::new(ModelConfig::tiny_opt());
        let clean = run(&model, 2, None, RecoveryPolicy::disabled());
        let spec = ShardFaultSpec {
            shard: 1,
            fault: ShardFault::Hang,
            step: 2,
            block: 0,
            duration: FaultDuration::Persistent,
        };
        let out = run(&model, 2, Some(spec), RecoveryPolicy::retries(1));
        assert!(out.failed.is_some());
        assert_eq!(
            classify_sharded(&clean.tokens, &out, &ExactJudge),
            Outcome::Hang
        );
    }

    #[test]
    fn tile_corrupt_without_scrubber_cannot_repair() {
        // Persistent weight corruption with no repair tap: every rung
        // re-reads the poisoned slice; with degrade the shard is evicted.
        let model = Model::new(ModelConfig::tiny_opt());
        let clean = run(&model, 2, None, RecoveryPolicy::disabled());
        let spec = ShardFaultSpec {
            shard: 0,
            fault: ShardFault::TileCorrupt,
            step: 1,
            block: 0,
            duration: FaultDuration::Persistent,
        };
        let out = run(
            &model,
            2,
            Some(spec),
            RecoveryPolicy::retries(1)
                .with_repair()
                .with_shard_degrade(),
        );
        assert!(out.completed());
        assert_eq!(out.shards_lost, 1, "eviction is the only rung that works");
        assert_eq!(
            classify_sharded(&clean.tokens, &out, &ExactJudge),
            Outcome::Degraded { shards_lost: 1 }
        );
    }
}
