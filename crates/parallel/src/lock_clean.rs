//! Poison-recovering lock helpers.
//!
//! FT2's recovery ladder runs *concurrently* with serving, so a poisoned
//! mutex is itself a DUE: a panicking batchmate that poisons a shared lock
//! would abort every later `lock().unwrap()` in the runtime — turning one
//! isolated trial crash into a whole-process outage the fault injector
//! never priced. [`lock_clean`] recovers the guard from a [`PoisonError`]
//! instead: every FT2 lock protects state that is re-validated by its
//! consumer (deques are drained per-batch, shard buffers are overwritten
//! before every read, SSE client sockets are retained/dropped on write
//! failure), so the data behind a poisoned lock is never trusted blindly
//! and recovery is always sound.
//!
//! Outside one test that poisons a lock on purpose, these two functions
//! are the only callers of `Mutex::lock` and `Condvar::wait` in the
//! workspace: `clippy.toml` disallows both methods everywhere else, so a
//! raw acquisition fails `cargo clippy -D warnings`.
//! No lock is held while another is taken; the `lock-order` check of
//! `ft2-repro lint` flags a nested acquisition of two different locks
//! unless it carries `// ft2: lock-ok (<why>)`.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `m`, recovering the guard if a previous holder panicked.
///
/// Poisoning in `std` is advisory — the data is still there, the flag only
/// records that a panic unwound through a critical section. Every lock in
/// this workspace guards state that is overwritten or re-validated before
/// use (see the module docs), so recovering the guard is always sound and
/// keeps one panicking trial from aborting the whole serving runtime.
#[allow(
    clippy::disallowed_methods,
    reason = "the one sanctioned `Mutex::lock`: poison is recovered here"
)]
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv`, recovering the reacquired guard if the mutex was
/// poisoned while this thread slept. The condition must be re-checked in
/// a loop by the caller as usual (spurious wakeups are still possible).
#[allow(
    clippy::disallowed_methods,
    reason = "the one sanctioned `Condvar::wait`: poison is recovered here"
)]
pub fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::catch_quiet;

    #[test]
    fn lock_clean_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        // Poison the mutex by unwinding through a held guard.
        #[allow(clippy::disallowed_methods, reason = "this test poisons the lock on purpose")]
        let _ = catch_quiet(|| {
            let _g = m.lock().unwrap();
            panic!("deliberate poison");
        });
        assert!(m.is_poisoned());
        *lock_clean(&m) += 1;
        assert_eq!(*lock_clean(&m), 42);
    }

    #[test]
    fn wait_clean_wakes_and_recovers() {
        use std::sync::{Arc, Condvar, Mutex};
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *lock_clean(m) = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = lock_clean(m);
        while !*g {
            g = wait_clean(cv, g);
        }
        drop(g);
        h.join().expect("notifier join");
    }
}
