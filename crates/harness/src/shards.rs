//! The sharded-execution gate behind `ft2-repro shards`.
//!
//! For each swept zoo config and shard count the gate checks the three
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
//!   shard loss is never silent.
//!
//! Sizing: `--smoke` sweeps N=2 only with a short generation; `FT2_SHARDS`
//! overrides the swept shard counts with a single value;
//! `FT2_SHARD_HEARTBEAT_MS` sets the hang-isolation heartbeat. Sharded
//! decode speed is the `sharded_decode` workload of `benchmark/`.

use crate::report::Check;
use crate::settings::Settings;
use ft2_core::ShardScrubber;
use ft2_fault::model::FaultDuration;
use ft2_fault::shard::{classify_sharded, ShardFault, ShardFaultInjector, ShardFaultSpec};
use ft2_fault::{ExactJudge, Outcome};
use ft2_model::{
    Model, RecoveryPolicy, ShardTapList, ShardedGeneration, ShardedModel, ZooModel,
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

/// Run the three scenarios for one (model, shard-count) cell.
fn probe_cell(
    spec_name: &str,
    model: &Model,
    pool: &WorkStealingPool,
    n: usize,
    gen_tokens: usize,
    heartbeat: Duration,
) -> [Check; 4] {
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
        // Two configs x N=2 in smoke mode, four checks per cell.
        assert_eq!(checks.len(), 8, "{checks:#?}");
        for c in &checks {
            assert!(c.pass, "check failed: {c:?}");
        }
        assert!(gate_passes(&checks));
    }
}
