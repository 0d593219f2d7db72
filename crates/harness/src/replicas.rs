//! The cross-replica failover gate behind `ft2-repro replicas`.
//!
//! Drives `ft2-serve`'s [`ReplicaSet`] end to end on fixed fixtures
//! (OPT-6.7B stand-in, deterministic SQuAD-style prompts) and checks the
//! three replication guarantees, one [`Check`] per conjunct:
//!
//! * **zero-token-loss handoff** — a replica crash mid-batch fails its
//!   in-flight requests over to a survivor with their accepted-token
//!   prefixes intact; every request completes **bit-identical** to its
//!   single-sequence generation, and at least one handoff carried accepted
//!   tokens across. Handoffs are typed: the drill records an
//!   [`ft2_fault::Outcome::FailedOver`] per failed-over request (the
//!   masked-but-priced outcome the analyzer and checkpoint carry).
//! * **blast-radius isolation** — a persistent activation storm on one
//!   replica trips the error-rate breaker (quarantine), its requests are
//!   evicted and retried clean on a survivor, and every request of the
//!   drill stays token-identical.
//! * **rebuild beats restart** — a quarantined replica with corrupted
//!   weights rebuilds live (incremental checksum sweep against the golden
//!   copy, survivors keep serving) and rejoins; the measured
//!   quarantine→rebuild→rejoin wall time must beat building a fresh
//!   replica from scratch — the one pair of durations this gate prints.
//!
//! Sizing: `--smoke` / `FT2_QUICK=1`. Knobs: `FT2_REPLICAS`,
//! `FT2_REPLICA_RETRY_BUDGET`, `FT2_REPLICA_BACKOFF_MS`,
//! `FT2_REPLICA_QUARANTINE_ERRS`. `BENCHMARK.json` has no replicas
//! workload yet, so replica serving latency is not measured anywhere.

use crate::report::Check;
use crate::settings::{env_usize, quick_mode};
use ft2_fault::{Outcome as FaultOutcome, OutcomeCounts, ReplicaFaultKind, ReplicaFaultSpec};
use ft2_model::{Model, TapList, ZooModel};
use ft2_parallel::WorkStealingPool;
use ft2_serve::replica::{
    ReplicaCompletion, ReplicaConfig, ReplicaHealth, ReplicaSet, RetryPolicy,
};
use ft2_serve::scheduler::{Outcome, Request};
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::DatasetId;
use std::time::Instant;

fn replica_config(replicas: usize, retry: RetryPolicy, quarantine_errs: u32) -> ReplicaConfig {
    ReplicaConfig {
        replicas,
        retry,
        quarantine_errs,
        heartbeat: std::time::Duration::from_millis(20),
        ..ReplicaConfig::default()
    }
}

/// Serve `requests` clean requests through a replica set with `fault`
/// injected (if any); returns completions sorted by id.
fn replica_wave(
    model: &Model,
    pool: &WorkStealingPool,
    config: ReplicaConfig,
    prompts: &[Vec<u32>],
    gen_tokens: usize,
    requests: usize,
    fault: Option<ReplicaFaultSpec>,
) -> (Vec<ReplicaCompletion>, ReplicaSet) {
    let mut set = ReplicaSet::new(model, config);
    if let Some(f) = fault {
        set.inject(f);
    }
    for i in 0..requests {
        set.try_submit(Request {
            id: i as u64,
            prompt: prompts[i % prompts.len()].clone(),
            gen_tokens,
            tap: None,
        })
        .expect("gate request rejected at admission");
    }
    let mut done = set.run(pool);
    done.sort_by_key(|c| c.inner.id);
    (done, set)
}

/// Run the replication gate. `smoke` (or `FT2_QUICK=1`) shrinks request
/// counts and generation length for CI.
pub fn run(pool: &WorkStealingPool, smoke: bool) -> Vec<Check> {
    let quick = smoke || quick_mode();
    let gen_tokens = if quick { 8 } else { 16 };
    let replicas = env_usize("FT2_REPLICAS").unwrap_or(2).max(2);
    let retry = RetryPolicy {
        budget: env_usize("FT2_REPLICA_RETRY_BUDGET").unwrap_or(3).max(1) as u32,
        backoff_ms: env_usize("FT2_REPLICA_BACKOFF_MS").unwrap_or(1) as u64,
        deadline_ms: 0,
    };
    let quarantine_errs = env_usize("FT2_REPLICA_QUARANTINE_ERRS").unwrap_or(3).max(1) as u32;
    let requests = if quick { 6 } else { 12 };

    let model = ZooModel::Opt6_7B.spec().build();
    let prompts = generate_prompts(DatasetId::Squad, requests.min(8), 0xF41);
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            let mut taps = TapList::new();
            model.generate(p, gen_tokens, &mut taps).tokens
        })
        .collect();
    let identical = |c: &ReplicaCompletion| {
        c.inner.outcome == Outcome::Completed
            && c.inner.tokens == solo[c.inner.id as usize % prompts.len()]
    };

    // Drill (a): replica 0 crashes mid-batch; zero-token-loss handoff.
    let (crash_done, crash_set) = replica_wave(
        &model,
        pool,
        replica_config(replicas, retry, quarantine_errs),
        &prompts,
        gen_tokens,
        requests,
        Some(ReplicaFaultSpec::transient(
            0,
            ReplicaFaultKind::Crash,
            (gen_tokens as u64 / 2).max(1),
        )),
    );
    let crash_identical = crash_done.iter().filter(|c| identical(c)).count();
    // Typed outcome accounting: the same counts the campaign checkpoint
    // persists and the analyzer prices.
    let mut counts = OutcomeCounts::default();
    for c in &crash_done {
        if identical(c) {
            counts.record(&if c.failovers > 0 {
                FaultOutcome::FailedOver {
                    failovers: c.failovers,
                }
            } else {
                FaultOutcome::MaskedIdentical
            });
        } else {
            counts.record(&FaultOutcome::Sdc);
        }
    }
    let crash_stats = *crash_set.stats();

    // Drill (b): a persistent activation storm on replica 0; the breaker
    // quarantines it and its requests retry clean on survivors.
    let (storm_done, storm_set) = replica_wave(
        &model,
        pool,
        replica_config(replicas, retry, quarantine_errs),
        &prompts,
        gen_tokens,
        requests,
        Some(ReplicaFaultSpec::persistent(
            0,
            ReplicaFaultKind::ActStorm,
            0,
        )),
    );
    let storm_identical = storm_done.iter().filter(|c| identical(c)).count();
    let storm_stats = *storm_set.stats();

    // Drill (c): quarantine a replica, corrupt its weights, and measure
    // quarantine→rebuild→rejoin against building a replacement replica
    // from scratch. Survivors keep the set serving throughout.
    let mut set = ReplicaSet::new(&model, replica_config(replicas, retry, quarantine_errs));
    set.quarantine(0);
    set.with_replica_weights(0, |w| {
        for b in 0..w.blocks.len() {
            for kind in [ft2_model::LayerKind::QProj, ft2_model::LayerKind::VProj] {
                if let Some(layer) = w.blocks[b].layer_mut(kind) {
                    let len = layer.weight.as_slice().len();
                    layer.weight.as_mut_slice()[(b * 131) % len] += 1.0e4;
                }
            }
        }
    })
    .expect("quarantined replica weights must be reachable");
    let t0 = Instant::now();
    while set.health(0) != ReplicaHealth::Healthy {
        set.step(pool);
    }
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rebuild_stats = *set.stats();
    // Full restart: synthesise a replacement replica from the checkpoint
    // config AND attest it — a replica can only join the set once its
    // weight-tile checksums exist (the integrity contract every sweep and
    // scrub relies on). Rebuild gets that attestation for free: its sweep
    // IS the checksum pass.
    let t0 = Instant::now();
    let fresh = Model::new(model.config().clone());
    let attestation = ft2_core::WeightChecksums::build(fresh.config(), fresh.weights());
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(attestation);
    drop(fresh);
    // The rebuilt replica must serve bit-identically again.
    for i in 0..2usize {
        set.try_submit(Request {
            id: i as u64,
            prompt: prompts[i % prompts.len()].clone(),
            gen_tokens,
            tap: None,
        })
        .expect("post-rejoin request rejected");
    }
    let rejoined = set.run(pool);
    let rejoin_identical = rejoined.iter().filter(|c| identical(c)).count();

    let at_least_one =
        |name: &str, n: u64, what: &str| Check::new(name, n >= 1, format!("{n} {what}"));
    vec![
        Check::new(
            "crash identity",
            crash_done.len() == requests && crash_identical == requests,
            format!("{crash_identical} of {requests} requests completed identical to solo"),
        ),
        at_least_one(
            "crash failovers",
            crash_stats.failovers,
            "failover(s) forced by the crash",
        ),
        at_least_one(
            "crash handoff tokens",
            crash_stats.handoff_tokens,
            "accepted token(s) carried across handoffs",
        ),
        at_least_one(
            "crash typed FailedOver",
            counts.failed_over,
            &format!(
                "request(s) typed FailedOver, {} MaskedIdentical",
                counts.masked_identical
            ),
        ),
        at_least_one(
            "storm quarantine",
            storm_stats.quarantines,
            "breaker quarantine(s) of the storming replica",
        ),
        at_least_one(
            "storm evictions",
            storm_stats.storm_evictions,
            "storm eviction(s) retried clean on a survivor",
        ),
        Check::new(
            "storm identity",
            storm_done.len() == requests && storm_identical == requests,
            format!("{storm_identical} of {requests} requests completed identical to solo"),
        ),
        at_least_one(
            "rebuild tiles repaired",
            rebuild_stats.tiles_repaired,
            "weight tile(s) restored from the golden copy",
        ),
        Check::new(
            "rebuild beats restart",
            rebuild_ms < restart_ms,
            format!("rejoin in {rebuild_ms:.3} ms vs {restart_ms:.3} ms full restart"),
        ),
        Check::new(
            "rejoin identity",
            rejoined.len() == 2 && rejoin_identical == 2,
            format!("{rejoin_identical} of 2 post-rejoin requests identical to solo"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::gate_passes;

    #[test]
    fn smoke_run_upholds_the_three_replication_guarantees() {
        let pool = WorkStealingPool::new(3);
        let checks = run(&pool, true);
        assert!(gate_passes(&checks), "replicas gate failed: {checks:#?}");
        for name in [
            "crash failovers",
            "crash handoff tokens",
            "storm quarantine",
        ] {
            let check = checks.iter().find(|c| c.name == name);
            assert!(check.is_some_and(|c| c.pass), "{name}: {check:?}");
        }
    }
}
