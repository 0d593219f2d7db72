//! Start/stop cycles must join every thread they spawn.
//!
//! Alone in its own test binary on purpose: the check counts the threads of
//! the whole process, so any test running beside it (the harness runs a
//! binary's tests on parallel threads, and the serving tests spawn servers
//! and pools) moves the count under it.

use std::sync::Arc;

use ft2_model::{Model, ModelConfig};
use ft2_serve::scheduler::ServeConfig;
use ft2_serve::Server;

/// Threads currently alive in this process (Linux: /proc/self/task).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn repeated_start_stop_cycles_leak_no_threads() {
    let model = Arc::new(Model::new(ModelConfig::tiny_llama()));
    // Warm up once so lazily-spawned process-wide threads don't skew the
    // baseline.
    drop(Server::spawn(Arc::clone(&model), ServeConfig::default(), 2));
    let baseline = live_threads();
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
    let after = live_threads();
    assert!(
        after <= baseline,
        "start/stop cycles leaked threads: {baseline} -> {after}"
    );
}
