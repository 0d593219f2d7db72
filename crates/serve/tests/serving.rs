//! End-to-end serving guarantees: batch/solo token identity, per-request
//! fault isolation, eviction, backpressure, and KV repair.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ft2_model::{
    Model, ModelConfig, RecoveryPolicy, ShardTapList, ShardedModel, StateTapList, TapList,
};
use ft2_parallel::WorkStealingPool;
use ft2_serve::scheduler::{EvictReason, Outcome, Request, Scheduler, ServeConfig, SubmitError};
use ft2_serve::{Server, StormTap};

fn model() -> Arc<Model> {
    static MODEL: OnceLock<Arc<Model>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(Model::new(ModelConfig::tiny_llama()))))
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

fn request(i: usize, tap: Option<Box<dyn ft2_model::LayerTap + Send>>) -> Request {
    Request {
        id: i as u64,
        prompt: PROMPTS[i].to_vec(),
        gen_tokens: GEN,
        tap,
    }
}

#[test]
fn fault_free_batch_matches_single_sequence_generation() {
    let model = model();
    let pool = WorkStealingPool::new(3);
    let mut sched = Scheduler::new(model.clone(), ServeConfig::default());
    for i in 0..4 {
        sched.try_submit(request(i, None)).unwrap();
    }
    let mut done = sched.run(&pool);
    assert_eq!(done.len(), 4);
    done.sort_by_key(|c| c.id);
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.outcome, Outcome::Completed);
        assert_eq!(c.tokens, solo_tokens(&model, PROMPTS[i], GEN), "request {i}");
        assert_eq!(c.rollbacks, 0);
        assert_eq!(c.tokens.len(), GEN);
    }
    assert_eq!(sched.arena_mut().pages_in_use(), 0, "all pages returned");
}

#[test]
fn transient_storm_is_isolated_to_the_storming_request() {
    let model = model();
    let pool = WorkStealingPool::new(3);
    let config = ServeConfig {
        recovery: RecoveryPolicy::retries(2),
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(model.clone(), config);
    for i in 0..4 {
        let tap: Option<Box<dyn ft2_model::LayerTap + Send>> =
            (i == 0).then(|| Box::new(StormTap::transient(3, 1)) as _);
        sched.try_submit(request(i, tap)).unwrap();
    }
    let mut done = sched.run(&pool);
    done.sort_by_key(|c| c.id);
    assert_eq!(done.len(), 4);
    for (i, c) in done.iter().enumerate() {
        assert_eq!(c.outcome, Outcome::Completed, "request {i}");
        // Rollback discards the storm entirely: every request — including
        // the storming one — matches its clean solo generation.
        assert_eq!(c.tokens, solo_tokens(&model, PROMPTS[i], GEN), "request {i}");
        if i == 0 {
            assert_eq!(c.storms, 1, "one storming step");
            assert_eq!(c.rollbacks, 1, "healed after one rollback");
        } else {
            assert_eq!(c.storms, 0);
            assert_eq!(c.rollbacks, 0, "clean request {i} must not roll back");
        }
    }
}

#[test]
fn persistent_storm_is_evicted_without_stalling_batchmates() {
    let model = model();
    let pool = WorkStealingPool::new(3);
    let config = ServeConfig {
        recovery: RecoveryPolicy::retries(2).with_repair(),
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(model.clone(), config);
    for i in 0..4 {
        let tap: Option<Box<dyn ft2_model::LayerTap + Send>> =
            (i == 0).then(|| Box::new(StormTap::persistent(2)) as _);
        sched.try_submit(request(i, tap)).unwrap();
    }
    let mut done = sched.run(&pool);
    done.sort_by_key(|c| c.id);
    assert_eq!(done.len(), 4);
    match done[0].outcome {
        Outcome::Evicted(EvictReason::RetriesExhausted { step, redecodes }) => {
            assert_eq!(step, 2, "evicted at the persistently storming step");
            assert!(redecodes >= 2, "budget spent before eviction");
        }
        other => panic!("storming request should be evicted, got {other:?}"),
    }
    assert!(done[0].tokens.len() < GEN, "eviction returns a prefix");
    assert!(done[0].repair_retries >= 1, "repair rung was attempted");
    for (i, c) in done.iter().enumerate().skip(1) {
        assert_eq!(c.outcome, Outcome::Completed, "batchmate {i} completes");
        assert_eq!(c.tokens, solo_tokens(&model, PROMPTS[i], GEN), "batchmate {i}");
    }
    assert_eq!(sched.arena_mut().pages_in_use(), 0, "evicted pages returned");
}

/// The engine, the scheduler and the sharded executor climb the same
/// ladder: one storm script — step 3 struck until `heal_after` rollbacks —
/// through `generate_resilient`, through a one-lane scheduler and (where
/// nothing could repair) through `generate_tapped` on two shards spends the
/// same rungs in each, up to and including giving up. `guarded` is whether
/// anything could repair (a `KvGuard` state tap there, `kv_guard` here):
/// without it neither host has a repair rung to take.
#[test]
fn engine_and_scheduler_climb_the_same_ladder() {
    let model = model();
    let pool = WorkStealingPool::new(2);
    let policy = RecoveryPolicy::retries(2).with_repair();
    for guarded in [true, false] {
        // Re-decodes the ladder grants one step: two retries, plus the
        // repair where the rung exists.
        let granted = if guarded { 3 } else { 2 };
        for heal_after in 0..=4u32 {
            let case = format!("guarded {guarded}, heal_after {heal_after}");

            let mut storm = StormTap::transient(3, heal_after);
            let mut taps = TapList::new();
            taps.push(&mut storm);
            let mut guard = ft2_core::KvGuard::new();
            let mut state = StateTapList::new();
            if guarded {
                state.push(&mut guard);
            }
            let solo = model.generate_resilient(PROMPTS[0], GEN, &mut taps, &mut state, policy);

            let config = ServeConfig {
                max_batch: 1,
                recovery: policy,
                kv_guard: guarded,
                ..ServeConfig::default()
            };
            let mut sched = Scheduler::new(model.clone(), config);
            let tap = Box::new(StormTap::transient(3, heal_after));
            sched.try_submit(request(0, Some(tap))).unwrap();
            let served = sched.run(&pool).pop().expect("one completion");

            assert_eq!(served.rollbacks, solo.rollbacks, "{case}");
            assert_eq!(served.rollbacks, heal_after.min(granted), "{case}");
            assert_eq!(served.storms, solo.storms, "{case}");
            assert_eq!(served.repair_retries, solo.repair_retries, "{case}");
            assert_eq!(served.repair_retries, u32::from(guarded && heal_after >= 3), "{case}");
            // Giving up means different things — the engine accepts the
            // token and flags the run, the scheduler evicts — but it
            // happens on the same failure of the same step.
            let evicted = Outcome::Evicted(EvictReason::RetriesExhausted {
                step: 3,
                redecodes: granted,
            });
            assert_eq!(solo.recovery_failed, heal_after > granted, "{case}");
            assert_eq!(solo.recovery_failed, served.outcome == evicted, "{case}");
            if solo.recovery_failed {
                assert_eq!(solo.steps[3].redecodes, granted, "{case}");
                assert_eq!(served.tokens, solo.tokens[..3], "{case}: tokens before step 3");
            } else {
                assert_eq!(served.outcome, Outcome::Completed, "{case}");
                assert_eq!(served.tokens, solo.tokens, "{case}");
                assert_eq!(served.tokens, solo_tokens(&model, PROMPTS[0], GEN), "{case}");
            }
            if guarded {
                continue;
            }
            // The third host: the same loop over the 2-shard fan-out
            // (no state taps, so no repair rung) spends the same rungs on
            // the same rows, and gives up the way the engine does.
            let mut storm = StormTap::transient(3, heal_after);
            let mut taps = TapList::new();
            taps.push(&mut storm);
            let sharded = ShardedModel::new(&model, 2).generate_tapped(
                &pool,
                PROMPTS[0],
                GEN,
                &mut taps,
                &mut ShardTapList::new(),
                policy,
                Duration::from_millis(100),
            );
            assert!(sharded.completed(), "{case}");
            assert_eq!(sharded.rollbacks, solo.rollbacks, "{case}, sharded");
            assert_eq!(sharded.tap_storms, solo.storms, "{case}, sharded");
            assert_eq!(sharded.recovery_failed, solo.recovery_failed, "{case}, sharded");
            assert_eq!(sharded.steps[3].redecodes, solo.steps[3].redecodes, "{case}, sharded");
            assert_eq!((sharded.storms, sharded.shard_retries), (0, 0), "{case}, sharded");
        }
    }
}

#[test]
fn disabled_policy_accepts_storming_tokens() {
    let model = model();
    let pool = WorkStealingPool::new(2);
    let config = ServeConfig {
        recovery: RecoveryPolicy::disabled(),
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(model.clone(), config);
    let tap: Box<dyn ft2_model::LayerTap + Send> = Box::new(StormTap::persistent(2));
    sched.try_submit(request(0, Some(tap))).unwrap();
    let done = sched.run(&pool);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].outcome, Outcome::Completed, "no eviction when disabled");
    assert_eq!(done[0].tokens.len(), GEN);
    assert!(done[0].storms > 0, "storms are still recorded");
    assert_eq!(done[0].rollbacks, 0, "no rollback when disabled");
}

#[test]
fn admission_control_backpressures_and_validates() {
    let model = model();
    let config = ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(model.clone(), config);
    sched.try_submit(request(0, None)).unwrap();
    sched.try_submit(request(1, None)).unwrap();
    assert_eq!(
        sched.try_submit(request(2, None)),
        Err(SubmitError::QueueFull),
        "third submission must backpressure"
    );
    assert_eq!(
        sched.try_submit(Request {
            id: 9,
            prompt: vec![],
            gen_tokens: 4,
            tap: None
        }),
        Err(SubmitError::EmptyPrompt)
    );
    let max_seq = model.config().max_seq;
    assert_eq!(
        sched.try_submit(Request {
            id: 10,
            prompt: vec![1; max_seq],
            gen_tokens: 1,
            tap: None
        }),
        Err(SubmitError::TooLong {
            requested: max_seq + 1,
            max_seq
        })
    );
}

#[test]
fn repair_rung_rebuilds_corrupted_kv_and_recovers_the_tokens() {
    let model = model();
    let pool = WorkStealingPool::new(2);
    let config = ServeConfig {
        max_batch: 1,
        recovery: RecoveryPolicy::retries(1).with_repair(),
        kv_guard: true,
        ..ServeConfig::default()
    };
    let mut sched = Scheduler::new(model.clone(), config);
    // Storm strikes step 4 and survives the single rollback; only the
    // repair rung's extra re-decode (heal_after = 2) clears it.
    let tap: Box<dyn ft2_model::LayerTap + Send> = Box::new(StormTap::transient(4, 2));
    sched.try_submit(request(0, Some(tap))).unwrap();
    // Step until the request has accepted 4 tokens (the next decode is the
    // storm target), then corrupt a sealed KV row behind the guard's back.
    loop {
        assert!(sched.step(&pool), "request finished before the drill armed");
        let seq = sched.lane_seq(0).expect("request is active");
        if seq.len() == PROMPTS[0].len() + 3 {
            let row = seq.row_of(1);
            sched.arena_mut().k_row_mut(0, row)[0] += 7.0;
            break;
        }
    }
    let done = sched.run(&pool);
    assert_eq!(done.len(), 1);
    let c = &done[0];
    assert_eq!(c.outcome, Outcome::Completed);
    assert_eq!(c.repair_retries, 1, "exactly one repair rung");
    assert!(c.kv_repairs > 0, "the corrupted position was rebuilt");
    // Post-repair decode runs on rebuilt (clean) state: the tokens match
    // the clean solo generation bit-for-bit.
    assert_eq!(c.tokens, solo_tokens(&model, PROMPTS[0], GEN));
}

#[test]
fn server_serves_concurrent_submissions_end_to_end() {
    let model = Arc::new(Model::new(ModelConfig::tiny_opt()));
    let server = Server::spawn(Arc::clone(&model), ServeConfig::default(), 2);
    let mut expected = Vec::new();
    for i in 0..6 {
        let prompt: Vec<u32> = (0..4 + i % 3).map(|j| (i * 13 + j) as u32).collect();
        let id = server.submit(prompt.clone(), GEN, None).unwrap();
        expected.push((id, solo_tokens(&model, &prompt, GEN)));
    }
    let mut done = server.wait_all();
    assert_eq!(done.len(), 6);
    done.sort_by_key(|c| c.id);
    for (c, (id, toks)) in done.iter().zip(&expected) {
        assert_eq!(c.id, *id);
        assert_eq!(c.outcome, Outcome::Completed);
        assert_eq!(&c.tokens, toks, "request {id}");
    }
    assert_eq!(server.submit(vec![], 4, None), Err(SubmitError::EmptyPrompt));
}

#[test]
fn shutdown_gracefully_drains_every_submitted_request() {
    let model = model();
    // One lane: later submissions sit in the queue when shutdown lands.
    let config = ServeConfig {
        max_batch: 1,
        ..ServeConfig::default()
    };
    let server = Server::spawn(Arc::clone(&model), config, 2);
    const DRAIN_GEN: usize = 48;
    let mut ids = Vec::new();
    ids.push(server.submit(PROMPTS[0].to_vec(), DRAIN_GEN, None).unwrap());
    // Let the worker admit request 0 (it is active or already complete by
    // the time the drain lands), then pile four more behind the single
    // lane so the drain must reject them.
    std::thread::sleep(std::time::Duration::from_millis(30));
    for i in 1..5 {
        ids.push(
            server
                .submit(PROMPTS[i % 4].to_vec(), DRAIN_GEN, None)
                .unwrap(),
        );
    }
    let mut done = server.shutdown();
    assert_eq!(done.len(), 5, "every submission is accounted for");
    done.sort_by_key(|c| c.id);
    let mut completed = 0;
    for c in &done {
        assert!(ids.contains(&c.id));
        match c.outcome {
            Outcome::Completed => {
                completed += 1;
                let p = PROMPTS[c.id as usize % 4];
                assert_eq!(
                    c.tokens,
                    solo_tokens(&model, p, DRAIN_GEN),
                    "drained in-flight request must finish normally"
                );
            }
            Outcome::Rejected(reason) => {
                assert_eq!(
                    reason,
                    ft2_serve::RejectReason::Shutdown,
                    "queued work gets the typed shutdown rejection"
                );
                assert!(c.tokens.is_empty(), "never-admitted request has no tokens");
            }
            Outcome::Evicted(_) => panic!("nothing faulted in this test"),
        }
    }
    assert!(
        completed >= 1,
        "at least the active lane must finish normally, got {done:?}"
    );
    assert!(
        done.iter()
            .any(|c| matches!(c.outcome, Outcome::Rejected(_))),
        "with one lane and five requests, some must be rejected at drain"
    );
}

#[test]
fn idle_shutdown_joins_cleanly() {
    let model = model();
    let server = Server::spawn(Arc::clone(&model), ServeConfig::default(), 2);
    assert!(server.shutdown().is_empty());
}
