//! Poison-recovering lock helpers and the central lock-order registry.
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
//! and recovery is always sound. Sites that genuinely *want* to die on
//! poison instead carry a `// ft2: poison-fatal (<why>)` annotation for
//! the `poisoned-lock` lint in `crates/analyze`.
//!
//! [`LOCK_REGISTRY`] is the concurrency twin of the harness
//! `KNOB_REGISTRY`: the single place where every long-lived lock in the
//! workspace is declared together with its global acquisition *rank*.
//! The `lock-order` lint builds the cross-crate lock-acquisition graph
//! from the source model and checks every nested acquisition against
//! these ranks (strictly increasing, lower rank acquired first); a cycle
//! in the graph is a potential deadlock and fails the lint. Same-name
//! acquisitions at equal rank (e.g. the per-worker `queues` deques or the
//! per-shard `partial` buffers) are permitted by convention in ascending
//! index order, which cannot cycle.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `m`, recovering the guard if a previous holder panicked.
///
/// Poisoning in `std` is advisory — the data is still there, the flag only
/// records that a panic unwound through a critical section. Every lock in
/// this workspace guards state that is overwritten or re-validated before
/// use (see the module docs), so recovering the guard is always sound and
/// keeps one panicking trial from aborting the whole serving runtime.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cv`, recovering the reacquired guard if the mutex was
/// poisoned while this thread slept. The condition must be re-checked in
/// a loop by the caller as usual (spurious wakeups are still possible).
pub fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// What kind of `std::sync` primitive a registered lock is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// A `std::sync::Mutex`.
    Mutex,
    /// A `std::sync::RwLock`.
    RwLock,
}

impl LockKind {
    /// Human-readable name, as shown in the README registry table.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
        }
    }
}

/// One long-lived lock declared in [`LOCK_REGISTRY`].
#[derive(Clone, Copy, Debug)]
pub struct LockSpec {
    /// Field name of the lock — the name the `lock-order` lint extracts
    /// from an acquisition expression (`lock_clean(&self.state.queues[i])`
    /// acquires `queues`).
    pub name: &'static str,
    /// Which primitive the lock is.
    pub kind: LockKind,
    /// Global acquisition rank: nested acquisitions must be strictly
    /// rank-increasing (lower rank taken first). Equal-rank nesting is
    /// only legal for the *same* name (index-ordered sibling arrays).
    pub rank: u32,
    /// Defining module, repo-relative.
    pub site: &'static str,
    /// What the lock protects and why its rank is where it is.
    pub doc: &'static str,
}

/// Every long-lived lock in the workspace, sorted by acquisition rank.
///
/// This is the declared global lock order: any code path that holds one of
/// these while acquiring another must acquire in strictly increasing rank.
/// The `lock-order` lint in `crates/analyze` enforces it statically; a
/// nested acquisition of a lock *not* in this table is a finding unless
/// annotated `// ft2: lock-ok (<why>)`.
pub const LOCK_REGISTRY: &[LockSpec] = &[
    LockSpec {
        name: "state",
        kind: LockKind::Mutex,
        rank: 1,
        site: "crates/serve/src/server.rs",
        doc: "scheduler + drain state behind the serving front door; held only \
              for queue surgery, released before any engine work",
    },
    LockSpec {
        name: "clients",
        kind: LockKind::Mutex,
        rank: 2,
        site: "crates/serve/src/web.rs",
        doc: "connected SSE client sockets; held across frame writes (socket \
              ops are bounded by IO_TIMEOUT, annotated blocking-ok)",
    },
    LockSpec {
        name: "job",
        kind: LockKind::Mutex,
        rank: 3,
        site: "crates/parallel/src/pool.rs",
        doc: "current batch closure slot of the work-stealing pool",
    },
    LockSpec {
        name: "queues",
        kind: LockKind::Mutex,
        rank: 4,
        site: "crates/parallel/src/pool.rs",
        doc: "per-worker block deques; sibling deques share the rank and are \
              only ever taken one at a time (steal order is index-rotated)",
    },
    LockSpec {
        name: "panics",
        kind: LockKind::Mutex,
        rank: 5,
        site: "crates/parallel/src/pool.rs",
        doc: "panic records of the current batch, in discovery order",
    },
    LockSpec {
        name: "work_mx",
        kind: LockKind::Mutex,
        rank: 6,
        site: "crates/parallel/src/pool.rs",
        doc: "sleeper registration for the published batch generation; paired \
              with work_cv to park workers whose spin budget is spent",
    },
    LockSpec {
        name: "done_mx",
        kind: LockKind::Mutex,
        rank: 7,
        site: "crates/parallel/src/pool.rs",
        doc: "batch-completion barrier; paired with done_cv to park a caller \
              whose spin budget is spent",
    },
    LockSpec {
        name: "dense",
        kind: LockKind::Mutex,
        rank: 8,
        site: "crates/model/src/shard.rs",
        doc: "per-shard column-parallel output buffer; overwritten by every \
              dispatch before it is read",
    },
    LockSpec {
        name: "partial",
        kind: LockKind::Mutex,
        rank: 9,
        site: "crates/model/src/shard.rs",
        doc: "per-shard row-parallel f64 partial buffer; the gather swaps \
              the siblings out one at a time in shard-index order",
    },
];

/// Look up a registered lock by field name.
pub fn lock_spec(name: &str) -> Option<&'static LockSpec> {
    LOCK_REGISTRY.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panics::catch_quiet;

    #[test]
    fn registry_is_rank_sorted_with_unique_names_and_ranks() {
        for w in LOCK_REGISTRY.windows(2) {
            assert!(w[0].rank < w[1].rank, "{} then {}", w[0].name, w[1].name);
        }
        let mut names: Vec<&str> = LOCK_REGISTRY.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LOCK_REGISTRY.len(), "duplicate lock name");
        for s in LOCK_REGISTRY {
            assert!(!s.site.is_empty() && !s.doc.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn lock_spec_finds_registered_locks_only() {
        assert_eq!(lock_spec("queues").unwrap().rank, 4);
        assert!(lock_spec("nonexistent").is_none());
    }

    #[test]
    fn lock_clean_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        // Poison the mutex by unwinding through a held guard.
        // ft2: poison-fatal (this test poisons the lock on purpose)
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
