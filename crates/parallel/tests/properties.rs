//! Property-based tests for the parallel substrate.

use ft2_parallel::WorkStealingPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

proptest! {
    /// The pool visits every index exactly once for any (n, grain, threads).
    #[test]
    fn pool_visits_exactly_once(
        n in 0usize..800,
        grain in 1usize..64,
        threads in 1usize..6,
    ) {
        let pool = WorkStealingPool::new(threads);
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, grain, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "index {} visited wrong count", i);
        }
    }

    /// pool.map preserves order for any thread count.
    #[test]
    fn pool_map_order(xs in prop::collection::vec(any::<u16>(), 0..400), threads in 1usize..5) {
        let pool = WorkStealingPool::new(threads);
        let out = pool.map(&xs, 7, |i, &x| (i, x));
        for (i, (j, x)) in out.iter().enumerate() {
            prop_assert_eq!(i, *j);
            prop_assert_eq!(*x, xs[i]);
        }
    }
}
