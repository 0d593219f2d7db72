//! Stress test: back-to-back tiny batches must never see each other's
//! closure.
//!
//! `WorkStealingPool::try_run` erases the lifetime of the batch closure, so
//! the pool is sound only if no worker can run a block of batch `N + 1`
//! with the closure of batch `N` — whose borrows point into a stack frame
//! the caller has already left. This test drives the dispatch pattern of
//! sharded decode (one two-block batch per linear layer, millions in a
//! row) and lets every closure check that the per-batch stack value it
//! borrows is its own batch's and that the indices it is handed lie in its
//! own batch's range.
//!
//! Hit rate measured on the parent commit (`4a19bc9`, where `worker_loop`
//! cloned the job out of `state.job` *before* counting itself into
//! `active`), release build, 2-core VM: **zero** foreign closures and zero
//! lost blocks in five runs of this file (2 × 10⁷ batches; variants with
//! 0.3–10 µs of work per task, a caller-side gap, a 200 µs ticker thread or
//! 1–4 spinning threads beside the pool found none in another 3 × 10⁷).
//! The window is two instructions wide and is hit only when a worker's
//! wake-up lands on the very end of a batch *and* the worker then stalls
//! long enough for the caller to publish the next one; with tasks this
//! small the caller has run both blocks and retired the job long before a
//! parked worker wakes. The same parent lost 3 of ~5 500 fault-free 2-shard
//! generations in 140 s (about one stale closure per 7 × 10⁶ dispatches)
//! and the benchmark's `model.shard.flaky` read 1–3 per run — the race
//! wants real GEMM-sized tasks, a busy caller between batches and minutes
//! of wall time, which a unit test cannot afford.
//!
//! So this test is a regression guard in the parent's failure *shape*, not
//! a detector of the parent's failure: with the worker counted in under the
//! `job` lock and the job retired before the final `active == 0` wait, a
//! foreign closure is impossible by construction, and a passing run shows
//! no more than that nothing grossly broke (DESIGN §3k).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ft2_parallel::WorkStealingPool;

const BATCHES: u64 = 2_000_000;

/// What a batch's closure borrows from its caller's stack.
struct Frame {
    /// The batch number, atomic only so the closure must load it through
    /// the borrow instead of folding it into its by-value copy.
    batch: AtomicU64,
    hits: [AtomicU32; 4],
}

/// `(foreign, lost)`: closure runs that saw another batch's frame or an
/// index outside their own range, and blocks that never ran under their
/// own closure.
fn hammer(workers: usize) -> (u64, u64) {
    let pool = WorkStealingPool::new(workers);
    let foreign = AtomicU64::new(0);
    let mut lost = 0u64;
    for batch in 0..BATCHES {
        // Two blocks either way, but alternating index ranges, so a stale
        // closure of a 2-index batch can be handed index 2 or 3.
        let (n, grain) = if batch % 2 == 0 { (2, 1) } else { (4, 2) };
        let frame = Frame {
            batch: AtomicU64::new(batch),
            hits: Default::default(),
        };
        let panics = pool.try_run(n, grain, |i| {
            if frame.batch.load(Ordering::Relaxed) != batch || i >= n {
                foreign.fetch_add(1, Ordering::Relaxed);
                return;
            }
            frame.hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(panics.is_empty(), "batch {batch}: {}", panics[0]);
        lost += frame.hits[..n]
            .iter()
            .filter(|h| h.load(Ordering::Relaxed) != 1)
            .count() as u64;
    }
    (foreign.load(Ordering::Relaxed), lost)
}

#[test]
fn one_worker_pool_never_runs_a_foreign_closure() {
    assert_eq!(hammer(1), (0, 0));
}

#[test]
fn two_worker_pool_never_runs_a_foreign_closure() {
    assert_eq!(hammer(2), (0, 0));
}
