//! Stress test: the work-stealing pool under concurrent request
//! cancellation and eviction (the serving scheduler's failure mode).
//!
//! Batches of pool tasks spin on a [`ShardHeartbeat`] like hung requests
//! while the driver cancels and evicts slots mid-flight. The pool must
//! drain every batch without deadlock or leaked state, preserve the panic
//! taxonomy (each aborting task surfaces as exactly one [`TaskPanic`] with
//! its own index and message), and stay reusable for clean batches
//! afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ft2_parallel::{HeartbeatMonitor, WorkStealingPool};

/// Deterministic per-round choice of which task indices get cancelled.
fn cancelled_in_round(round: usize, n: usize) -> Vec<usize> {
    (0..n)
        .filter(|i| (i * 7 + round * 3).is_multiple_of(5))
        .collect()
}

#[test]
fn pool_drains_under_concurrent_cancellation_and_eviction() {
    const TASKS: usize = 12;
    const ROUNDS: usize = 6;
    let pool = WorkStealingPool::new(4);
    // Manual cancellation only — a long timeout keeps the watchdog quiet.
    let monitor = HeartbeatMonitor::spawn(TASKS, Duration::from_secs(30));
    let hb = monitor.state();
    let completed = AtomicUsize::new(0);

    for round in 0..ROUNDS {
        let doomed = cancelled_in_round(round, TASKS);
        // Half the doomed slots are evicted outright (they must stop
        // quietly), the other half are cancelled (they must abort loudly).
        let (evicted, cancelled): (Vec<usize>, Vec<usize>) =
            doomed.iter().copied().partition(|i| i % 2 == 0);
        for &i in &cancelled {
            hb.cancel(i);
        }
        for &i in &evicted {
            hb.evict(i);
        }

        let panics = pool.try_run(TASKS, 1, |i| {
            hb.begin(i);
            // Spin like a request waiting on work until the driver
            // decides this slot's fate; survivors do bounded work.
            for _ in 0..10_000 {
                if hb.is_cancelled(i) {
                    panic!("request {i} cancelled in round {round}");
                }
                if hb.is_evicted(i) {
                    // Evicted requests stop cleanly, never panic.
                    hb.end(i);
                    return;
                }
                std::hint::spin_loop();
            }
            hb.end(i);
            completed.fetch_add(1, Ordering::SeqCst);
        });

        // Taxonomy: exactly the cancelled tasks panic, each exactly once,
        // with its own index threaded through.
        let mut got: Vec<usize> = panics.iter().map(|p| p.index).collect();
        got.sort_unstable();
        let mut want = cancelled.clone();
        want.sort_unstable();
        assert_eq!(got, want, "round {round}: cancelled set must panic");
        for p in &panics {
            assert!(
                p.message
                    .contains(&format!("request {} cancelled", p.index)),
                "round {round}: panic message lost its payload: {}",
                p.message
            );
        }
        // Evicted slots must not be reported hung or cancelled afterwards.
        for &i in &evicted {
            assert!(hb.is_evicted(i));
            assert!(!hb.is_cancelled(i), "evicted slot {i} reported cancelled");
        }

        // Hand every slot back for the next round.
        for i in 0..TASKS {
            hb.reset(i);
        }
    }

    // The pool survived every storm: a clean batch runs to completion
    // with no stragglers from earlier rounds.
    let clean = AtomicUsize::new(0);
    let panics = pool.try_run(TASKS * 4, 1, |_| {
        clean.fetch_add(1, Ordering::SeqCst);
    });
    assert!(panics.is_empty(), "clean batch after storms must not panic");
    assert_eq!(clean.load(Ordering::SeqCst), TASKS * 4);
    assert!(completed.load(Ordering::SeqCst) > 0, "survivors did work");
}

#[test]
fn mid_flight_cancellation_aborts_spinning_tasks() {
    const TASKS: usize = 8;
    let pool = WorkStealingPool::new(4);
    // Real watchdog: tasks that never beat are cancelled by the monitor
    // while they spin — the serving "hung request" path.
    let monitor = HeartbeatMonitor::spawn(TASKS, Duration::from_millis(10));
    let hb = monitor.state();
    let panics = pool.try_run(TASKS, 1, |i| {
        hb.begin(i);
        if i % 2 == 0 {
            // Healthy request: finishes immediately.
            hb.end(i);
            return;
        }
        // Hung request: stops beating and spins until the watchdog fires.
        loop {
            if hb.is_cancelled(i) {
                panic!("hung request {i} isolated by heartbeat");
            }
            std::hint::spin_loop();
        }
    });
    let mut got: Vec<usize> = panics.iter().map(|p| p.index).collect();
    got.sort_unstable();
    let want: Vec<usize> = (0..TASKS).filter(|i| i % 2 == 1).collect();
    assert_eq!(got, want, "exactly the hung requests abort");
    // The pool is immediately reusable.
    let sum = AtomicUsize::new(0);
    let clean = pool.try_run(16, 1, |i| {
        sum.fetch_add(i, Ordering::SeqCst);
    });
    assert!(clean.is_empty());
    assert_eq!(sum.load(Ordering::SeqCst), (0..16).sum::<usize>());
}
