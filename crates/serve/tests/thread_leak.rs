//! Start/stop cycles must join every thread they spawn.
//!
//! Alone in its own test binary on purpose: the check counts the threads of
//! the whole process, so any test running beside it (the harness runs a
//! binary's tests on parallel threads, and the serving tests spawn servers
//! and pools) moves the count under it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft2_model::{Model, ModelConfig};
use ft2_serve::scheduler::ServeConfig;
use ft2_serve::Server;

/// How long an exited thread's `/proc/self/task` entry may outlive its
/// join. `pthread_join` returns when the kernel clears the thread's tid
/// and wakes the joiner (`CLONE_CHILD_CLEARTID`), which comes before the
/// exiting task is unhashed from `/proc`, so for a few microseconds after
/// a join the entry can still be listed. A running thread stays listed
/// for good, so waiting this long lets only exited ones leave.
const EXIT_GRACE: Duration = Duration::from_millis(500);

/// Threads currently alive in this process (Linux: /proc/self/task).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// [`live_threads`], once it is at most `limit` or [`EXIT_GRACE`] has
/// passed: entries of threads that have already exited get time to leave.
fn live_threads_settled(limit: usize) -> usize {
    let deadline = Instant::now() + EXIT_GRACE;
    loop {
        let n = live_threads();
        if n <= limit || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn repeated_start_stop_cycles_leak_no_threads() {
    let model = Arc::new(Model::new(ModelConfig::tiny_llama()));
    // Warm up once so lazily-spawned process-wide threads don't skew the
    // baseline.
    drop(Server::spawn(Arc::clone(&model), ServeConfig::default(), 2));
    // Counted after the whole grace, so the warm-up's joined threads are
    // gone from it too.
    let baseline = live_threads_settled(0);
    for cycle in 0..8 {
        let server = Server::spawn(Arc::clone(&model), ServeConfig::default(), 2);
        let id = server.submit(vec![3, 14, 15, 92, 6], 3, None).unwrap();
        let done = server.shutdown();
        assert!(
            done.iter().any(|c| c.id == id),
            "cycle {cycle}: request accounted for"
        );
    }
    // Worker + pool threads must all be joined each cycle.
    let after = live_threads_settled(baseline);
    assert!(
        after <= baseline,
        "start/stop cycles leaked threads: {baseline} -> {after}"
    );

    // The grace lets exited threads go, not running ones: a thread still
    // alive (parked on a channel here) is counted after the wait.
    let (tx, rx) = mpsc::channel::<()>();
    let parked = std::thread::spawn(move || rx.recv());
    assert!(
        live_threads_settled(baseline) > baseline,
        "a running thread went uncounted"
    );
    drop(tx);
    parked.join().unwrap().unwrap_err();
}
