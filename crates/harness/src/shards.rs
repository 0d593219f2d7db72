//! The sharded-execution gate behind `ft2-repro shards`.
//!
//! For each swept zoo config and shard count the gate checks the four
//! guarantees of the fault-isolation design, end to end through the real
//! sharded executor ([`ft2_model::ShardedModel`]), one [`Check`] each:
//!
//! * **identity** — a fault-free N-shard decode emits tokens bit-identical
//!   to the 1-shard golden run (the f64-exact reduce seam);
//! * **repair** — a *persistent* shard-scoped weight fault
//!   ([`ft2_fault::ShardFault::TileCorrupt`]) is survived through the
//!   shard-level repair rung ([`ft2_core::ShardScrubber`] golden-copy
//!   restore), and one repair rung costs less than a full restart
//!   (re-running the whole generation) — the per-incident comparison, and
//!   the one measured duration this gate prints;
//! * **degrade** — crashing one shard with degraded-mode serving enabled
//!   still emits every requested token and reports
//!   [`ft2_fault::Outcome::Degraded`] — availability is preserved, and the
//!   shard loss is never silent;
//! * **FT2 on the seam** — a shard's wrong-but-finite partial, far under
//!   the executor's fixed anomaly threshold, is invisible to a tap-less
//!   run and clamped by an FT2 [`ft2_core::Protector`] on the lane, whose
//!   profiled bounds see the gathered output after the seam.
//!
//! Sizing: `--smoke` sweeps N=2 only with a short generation; `FT2_SHARDS`
//! overrides the swept shard counts with a single value;
//! `FT2_SHARD_HEARTBEAT_MS` sets the hang-isolation heartbeat. Sharded
//! decode speed is the `sharded_decode` workload of `benchmark/`.

use crate::report::Check;
use crate::settings::Settings;
use ft2_core::{Scheme, SchemeFactory, ShardScrubber};
use ft2_fault::model::FaultDuration;
use ft2_fault::shard::{classify_sharded, ShardFault, ShardFaultInjector, ShardFaultSpec};
use ft2_fault::{ExactJudge, Outcome, ProtectionFactory};
use ft2_model::shard::{PartialMut, ShardPartialCtx, ShardTap};
use ft2_model::{
    LayerKind, Model, RecoveryPolicy, ShardTapList, ShardedGeneration, ShardedModel, TapList,
    ZooModel,
};
use ft2_parallel::WorkStealingPool;
use std::time::Duration;

/// Deterministic prompt for the sweep (token ids valid for every zoo
/// config: all vocabularies exceed 32).
const PROMPT: [u32; 6] = [3, 14, 15, 9, 26, 5];

fn generate(
    model: &Model,
    pool: &WorkStealingPool,
    n: usize,
    gen_tokens: usize,
    taps: &mut ShardTapList<'_>,
    policy: RecoveryPolicy,
    heartbeat: Duration,
) -> ShardedGeneration {
    ShardedModel::new(model, n).generate_with(pool, &PROMPT, gen_tokens, taps, policy, heartbeat)
}

/// The step [`SeamFault`] strikes.
const SEAM_FAULT_STEP: usize = 2;

/// Scales shard 0's block-0 V_PROJ partial (an FT2-critical layer) by 10³
/// at one step: finite and five orders of magnitude under the executor's
/// fixed anomaly threshold, so only profiled bounds can see it.
struct SeamFault;

impl ShardTap for SeamFault {
    fn on_partial(&mut self, ctx: &ShardPartialCtx, data: PartialMut<'_>) {
        // V_PROJ is column-sharded: its partial is the f32 kind.
        let PartialMut::F32(m) = data else { return };
        if (ctx.step, ctx.block, ctx.layer, ctx.shard) == (SEAM_FAULT_STEP, 0, LayerKind::VProj, 0) {
            m.as_mut_slice().iter_mut().for_each(|v| *v *= 1e3);
        }
    }
}

/// Run the four scenarios for one (model, shard-count) cell.
fn probe_cell(
    spec_name: &str,
    model: &Model,
    pool: &WorkStealingPool,
    n: usize,
    gen_tokens: usize,
    heartbeat: Duration,
) -> [Check; 5] {
    // Golden: 1-shard, fault-free.
    let golden = generate(
        model,
        pool,
        1,
        gen_tokens,
        &mut ShardTapList::new(),
        RecoveryPolicy::disabled(),
        heartbeat,
    );

    // (a) identity: N shards, fault-free, bit-identical tokens.
    let clean = generate(
        model,
        pool,
        n,
        gen_tokens,
        &mut ShardTapList::new(),
        RecoveryPolicy::disabled(),
        heartbeat,
    );
    let token_identical = clean.completed() && clean.tokens == golden.tokens;
    // Full-restart cost: re-running the whole N-shard generation.
    let restart_ns = clean.prefill_ns + clean.decode_ns;

    // (b) repair: persistent weight-tile corruption on shard 0, survived
    // through the scrubber's golden-copy repair rung.
    let repair = {
        let mut sharded = ShardedModel::new(model, n);
        let mut injector = ShardFaultInjector::new(ShardFaultSpec {
            shard: 0,
            fault: ShardFault::TileCorrupt,
            step: 1,
            block: 0,
            duration: FaultDuration::Persistent,
        });
        let mut scrubber = ShardScrubber::new(sharded.shards(), 0);
        let mut taps = ShardTapList::new();
        taps.push(&mut injector);
        taps.push(&mut scrubber);
        sharded.generate_with(
            pool,
            &PROMPT,
            gen_tokens,
            &mut taps,
            RecoveryPolicy::retries(1).with_repair(),
            heartbeat,
        )
    };
    let repair_outcome = classify_sharded(&golden.tokens, &repair, &ExactJudge);

    // (c) degrade: crash one shard mid-generation; keep serving.
    let degrade = {
        let mut injector = ShardFaultInjector::new(ShardFaultSpec {
            shard: n - 1,
            fault: ShardFault::Crash,
            step: 1,
            block: 0,
            duration: FaultDuration::Persistent,
        });
        let mut taps = ShardTapList::new();
        taps.push(&mut injector);
        generate(
            model,
            pool,
            n,
            gen_tokens,
            &mut taps,
            RecoveryPolicy::retries(1).with_shard_degrade(),
            heartbeat,
        )
    };
    let degrade_outcome = classify_sharded(&golden.tokens, &degrade, &ExactJudge);

    // (d) FT2 on the seam: the same wrong-but-finite partial without and
    // with an FT2 protector on the lane, and the protector alone.
    let on_seam = |seam_fault: bool, scheme: Scheme| {
        let mut fault = SeamFault;
        let mut taps = ShardTapList::new();
        if seam_fault {
            taps.push(&mut fault);
        }
        let mut protectors = SchemeFactory::new(scheme, model.config(), None).make();
        let mut lane_taps = TapList::new();
        for p in &mut protectors {
            lane_taps.push(p.as_mut());
        }
        let policy = RecoveryPolicy::disabled();
        ShardedModel::new(model, n)
            .generate_tapped(pool, &PROMPT, gen_tokens, &mut lane_taps, &mut taps, policy, heartbeat)
    };
    let unseen = on_seam(true, Scheme::NoProtection);
    let clamped = on_seam(true, Scheme::Ft2).steps[SEAM_FAULT_STEP].report.clamps;
    let false_clamps: u64 = on_seam(false, Scheme::Ft2).steps.iter().map(|s| s.report.clamps).sum();

    // A restart would not even clear a persistent fault; this shows one
    // repair rung also wins on pure time.
    let rung_ns = repair.repair_ns / u64::from(repair.repair_rungs.max(1));
    let cell = format!("{spec_name} N={n}");
    [
        Check::new(
            format!("{cell} identity"),
            token_identical,
            format!(
                "{} of {gen_tokens} tokens generated, compared with the 1-shard run",
                clean.tokens.len()
            ),
        ),
        Check::new(
            format!("{cell} repair"),
            matches!(repair_outcome, Outcome::Repaired { .. }),
            format!(
                "{repair_outcome:?}: {} rung(s), {} tile(s) restored",
                repair.repair_rungs, repair.tiles_repaired
            ),
        ),
        Check::new(
            format!("{cell} repair beats restart"),
            rung_ns < restart_ns,
            format!(
                "{:.3} ms per repair rung vs {:.3} ms full restart",
                rung_ns as f64 / 1e6,
                restart_ns as f64 / 1e6
            ),
        ),
        Check::new(
            format!("{cell} degrade"),
            matches!(degrade_outcome, Outcome::Degraded { .. })
                && degrade.tokens.len() == gen_tokens
                && degrade.shards_lost >= 1,
            format!(
                "{degrade_outcome:?}: {} of {gen_tokens} tokens served, {} shard(s) lost",
                degrade.tokens.len(),
                degrade.shards_lost
            ),
        ),
        Check::new(
            format!("{cell} FT2 on the seam"),
            unseen.completed() && unseen.storms == 0 && clamped >= 1,
            format!(
                "partial x1000 at step {SEAM_FAULT_STEP}: {} anomalies seen tap-less, {clamped} value(s) \
                 clamped under FT2; {false_clamps} clamp(s) in the fault-free protected run",
                unseen.storms
            ),
        ),
    ]
}

/// Run the gate: two zoo configs (one OPT-style, one Llama-style with a
/// shard-count-indivisible head count) at N=2 and N=4, or N=2 only in
/// smoke mode. `FT2_SHARDS` (when > 1) narrows the sweep to that count.
pub fn run(pool: &WorkStealingPool, smoke: bool) -> Vec<Check> {
    let settings = Settings::from_env();
    let gen_tokens = if smoke { 8 } else { 12 };
    let heartbeat = Duration::from_millis(settings.shard_heartbeat_ms.max(1));
    let counts: Vec<usize> = if settings.shards > 1 {
        vec![settings.shards]
    } else if smoke {
        vec![2]
    } else {
        vec![2, 4]
    };

    let mut checks = Vec::new();
    for zoo in [ZooModel::Opt6_7B, ZooModel::Qwen2_1_5B] {
        let spec = zoo.spec();
        let model = spec.build();
        for &n in &counts {
            checks.extend(probe_cell(spec.name(), &model, pool, n, gen_tokens, heartbeat));
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::gate_passes;

    #[test]
    fn smoke_sweep_upholds_all_guarantees() {
        let pool = WorkStealingPool::new(3);
        let checks = run(&pool, true);
        // Two configs x N=2 in smoke mode, five checks per cell.
        assert_eq!(checks.len(), 10, "{checks:#?}");
        for c in &checks {
            assert!(c.pass, "check failed: {c:?}");
        }
        assert!(gate_passes(&checks));
    }
}
