//! Cross-replica failover guarantees: zero-token-loss handoff with
//! bit-identical continuation, hang detection through the shared heartbeat
//! monitor, breaker-driven quarantine of a storming replica, live weight
//! rebuild from the golden copy, and typed budget/deadline rejections.

use std::sync::OnceLock;
use std::time::Duration;

use ft2_fault::{FaultDuration, ReplicaFaultKind, ReplicaFaultSpec};
use ft2_model::{Model, ModelConfig, TapList};
use ft2_parallel::WorkStealingPool;
use ft2_serve::replica::{ReplicaConfig, ReplicaHealth, ReplicaSet, RetryPolicy};
use ft2_serve::scheduler::{Outcome, RejectReason, Request};

fn model() -> &'static Model {
    static MODEL: OnceLock<Model> = OnceLock::new();
    MODEL.get_or_init(|| Model::new(ModelConfig::tiny_llama()))
}

fn solo_tokens(model: &Model, prompt: &[u32], gen: usize) -> Vec<u32> {
    let mut taps = TapList::new();
    model.generate(prompt, gen, &mut taps).tokens
}

const PROMPTS: [&[u32]; 4] = [
    &[3, 14, 15, 92, 6],
    &[27, 1, 82, 8],
    &[45, 45, 45],
    &[9, 8, 7, 6, 5, 4],
];
const GEN: usize = 8;

fn request(i: usize) -> Request {
    Request {
        id: i as u64,
        prompt: PROMPTS[i].to_vec(),
        gen_tokens: GEN,
        tap: None,
    }
}

fn config() -> ReplicaConfig {
    ReplicaConfig {
        replicas: 2,
        heartbeat: Duration::from_millis(10),
        ..ReplicaConfig::default()
    }
}

/// Run all four requests to completion and assert every one is
/// bit-identical to its solo generation.
fn assert_all_identical(set: &mut ReplicaSet, pool: &WorkStealingPool) {
    let mut done = set.run(pool);
    assert_eq!(done.len(), 4);
    done.sort_by_key(|c| c.inner.id);
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.inner.outcome, Outcome::Completed, "request {i}");
        assert_eq!(
            c.inner.tokens,
            solo_tokens(model(), PROMPTS[i], GEN),
            "request {i} diverged from solo generation"
        );
    }
}

#[test]
fn fault_free_replica_set_matches_solo_generation() {
    let pool = WorkStealingPool::new(2);
    let mut set = ReplicaSet::new(model(), config());
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    assert_eq!(set.stats().failovers, 0);
    assert_eq!(set.stats().quarantines, 0);
}

#[test]
fn crash_mid_batch_hands_off_without_losing_a_token() {
    let pool = WorkStealingPool::new(2);
    let mut set = ReplicaSet::new(model(), config());
    // Both replicas get work (least-loaded routing alternates), replica 0
    // crashes mid-generation: its requests must fail over to replica 1
    // carrying their accepted prefixes and finish bit-identical to solo.
    set.inject(ReplicaFaultSpec::transient(0, ReplicaFaultKind::Crash, 3));
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    let stats = *set.stats();
    assert_eq!(stats.crashes, 1);
    assert!(stats.failovers >= 1, "crash must fail requests over");
    assert!(
        stats.handoff_tokens >= 1,
        "mid-generation crash must carry accepted tokens across"
    );
    assert_eq!(stats.rebuilds, 1, "crashed replica rebuilds and rejoins");
    assert_eq!(set.health(0), ReplicaHealth::Healthy, "rejoined");
}

#[test]
fn hang_is_cancelled_by_the_watchdog_and_failed_over() {
    let pool = WorkStealingPool::new(2);
    let mut set = ReplicaSet::new(model(), config());
    assert!(set.watchdog_armed());
    set.inject(ReplicaFaultSpec::transient(0, ReplicaFaultKind::Hang, 2));
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    let stats = *set.stats();
    assert_eq!(stats.hangs, 1, "watchdog abort classified as hang");
    assert_eq!(stats.crashes, 0);
    assert!(stats.failovers >= 1);
    assert_eq!(stats.rebuilds, 1);
}

#[test]
fn disabled_watchdog_degrades_hang_to_immediate_abort() {
    let pool = WorkStealingPool::new(2);
    let mut cfg = config();
    cfg.heartbeat = Duration::ZERO;
    let mut set = ReplicaSet::new(model(), cfg);
    assert!(!set.watchdog_armed());
    set.inject(ReplicaFaultSpec::transient(0, ReplicaFaultKind::Hang, 2));
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    // The hang must not spin for the (absent) monitor: the abort is
    // immediate and the run completes identically.
    assert_all_identical(&mut set, &pool);
    assert_eq!(set.stats().hangs, 1);
}

#[test]
fn storming_replica_is_quarantined_and_its_requests_retried_clean() {
    let pool = WorkStealingPool::new(2);
    let mut cfg = config();
    cfg.quarantine_errs = 2;
    let mut set = ReplicaSet::new(model(), cfg);
    set.inject(ReplicaFaultSpec::persistent(
        0,
        ReplicaFaultKind::ActStorm,
        0,
    ));
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    let stats = *set.stats();
    assert!(
        stats.storm_evictions >= 1,
        "storm-injected evictions are retried, got {stats:?}"
    );
    assert!(stats.quarantines >= 1, "breaker must trip on the storm");
    assert!(stats.rebuilds >= 1, "quarantined replica rebuilds");
}

#[test]
fn rebuild_repairs_corrupted_weights_from_the_golden_copy() {
    let pool = WorkStealingPool::new(2);
    let mut set = ReplicaSet::new(model(), config());
    set.quarantine(0);
    let touched = set
        .with_replica_weights(0, |w| {
            // Corrupt a few elements across two blocks.
            for b in 0..2 {
                let layer = w.blocks[b]
                    .layer_mut(ft2_model::LayerKind::QProj)
                    .expect("qproj");
                layer.weight.as_mut_slice()[3] += 1.0e4;
            }
            2
        })
        .expect("quarantined replica's weights are accessible");
    assert_eq!(touched, 2);
    assert!(
        set.with_replica_weights(1, |_| ()).is_none(),
        "serving replica's weights must not be touchable"
    );
    // Drive the set with work on the survivor until the rebuild finishes.
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    let stats = *set.stats();
    assert_eq!(stats.tiles_repaired, 2, "both corrupted tiles restored");
    assert_eq!(set.health(0), ReplicaHealth::Healthy);
    // The rebuilt replica serves bit-identically again.
    set.try_submit(request(2)).unwrap();
    set.try_submit(request(3)).unwrap();
    let done = set.run(&pool);
    for c in done {
        let i = c.inner.id as usize;
        assert_eq!(c.inner.tokens, solo_tokens(model(), PROMPTS[i], GEN));
    }
}

#[test]
fn exhausted_failover_budget_is_a_typed_rejection() {
    let pool = WorkStealingPool::new(2);
    let mut cfg = config();
    cfg.replicas = 1;
    cfg.retry = RetryPolicy {
        budget: 2,
        backoff_ms: 1,
        deadline_ms: 0,
    };
    let mut set = ReplicaSet::new(model(), cfg);
    // The only replica crashes every step it has work: each rejoin crashes
    // again, burning the budget until the request is rejected — typed,
    // never dropped.
    set.inject(ReplicaFaultSpec::persistent(0, ReplicaFaultKind::Crash, 0));
    set.try_submit(request(0)).unwrap();
    let done = set.run(&pool);
    assert_eq!(done.len(), 1, "rejected, not dropped");
    assert_eq!(
        done[0].inner.outcome,
        Outcome::Rejected(RejectReason::FailoverBudgetExhausted { failovers: 3 }),
    );
    assert_eq!(done[0].failovers, 3);
    assert!(set.stats().rejections >= 1);
}

#[test]
fn expired_deadline_is_a_typed_rejection() {
    let pool = WorkStealingPool::new(2);
    let mut cfg = config();
    cfg.replicas = 1;
    cfg.retry = RetryPolicy {
        budget: u32::MAX,
        backoff_ms: 4,
        deadline_ms: 1,
    };
    let mut set = ReplicaSet::new(model(), cfg);
    set.inject(ReplicaFaultSpec::persistent(0, ReplicaFaultKind::Crash, 0));
    set.try_submit(request(0)).unwrap();
    let done = set.run(&pool);
    assert_eq!(done.len(), 1);
    assert_eq!(
        done[0].inner.outcome,
        Outcome::Rejected(RejectReason::DeadlineExceeded),
        "deadline must beat an unbounded budget"
    );
}

#[test]
fn intermittent_crash_flaps_without_permanent_eviction() {
    let pool = WorkStealingPool::new(2);
    let mut set = ReplicaSet::new(model(), config());
    set.inject(ReplicaFaultSpec::new(
        0,
        ReplicaFaultKind::Crash,
        2,
        FaultDuration::Intermittent { period: 64 },
    ));
    for i in 0..4 {
        set.try_submit(request(i)).unwrap();
    }
    assert_all_identical(&mut set, &pool);
    // The replica crashed, rebuilt, and rejoined — still in rotation.
    assert_eq!(set.health(0), ReplicaHealth::Healthy);
    assert!(set.stats().rebuilds >= 1);
}
