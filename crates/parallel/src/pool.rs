//! A persistent, panic-isolating work-stealing thread pool.
//!
//! The campaign engine in `ft2-fault` issues hundreds of thousands of
//! independent trials whose costs differ by an order of magnitude. Static
//! chunking leaves threads idle at the tail; a shared queue serialises on
//! one lock. The classic answer is work stealing: each worker owns a deque,
//! takes from its own back (LIFO, cache-warm), and steals from siblings'
//! fronts (FIFO, coarse) when it runs dry. This implementation is built
//! purely on `std::sync` so the workspace has no external dependencies.
//!
//! The pool executes *batches*: [`WorkStealingPool::run`] blocks until every
//! task of the batch has completed, writing results by task index so output
//! is deterministic. The threads are spawned once and reused across an
//! entire campaign.
//!
//! **Waiting.** A thread with nothing to do first watches the atomic it is
//! waiting on for `SPIN_BUDGET` (50 µs) — a worker the published `generation`, the
//! caller `remaining` and then `active` — and parks on a condvar only once
//! that is spent. Back-to-back microsecond batches (sharded decode issues
//! one per linear) are therefore handed over in user space; a pool left
//! alone for longer than the budget costs no CPU. Whoever makes the awaited
//! change takes the lock and notifies only if a sleeper has registered, so
//! the handoff between two running threads makes no system call. Each of
//! the two sleep/wake pairs is a Dekker handshake on `SeqCst` atomics:
//!
//! * **work:** the publisher bumps `generation`, then reads `sleepers`; a
//!   worker registers in `sleepers` under `work_mx`, then re-reads
//!   `generation` before it waits on `work_cv`.
//! * **done:** a finisher decrements `remaining` (or `active`), then reads
//!   `caller_waiting`; the caller sets `caller_waiting` under `done_mx`,
//!   then re-reads the counter before it waits on `done_cv`.
//!
//! In either pair one side is certain to see the other's write, so no
//! thread parks with its wake-up already spent; every schedule of both
//! pairs, and of each with its registration or re-read removed, is
//! enumerated in `tests/pool_handoff_stress.rs`. This is only *how* threads
//! wait. *Who* may hold the batch closure is the join-under-the-`job`-lock,
//! retire-then-wait-for-`active` protocol described in `try_run`, which the
//! waiting scheme neither uses nor weakens.
//!
//! **Panic isolation.** Every task runs under [`crate::panics::catch_quiet`].
//! A panicking task can therefore never deadlock the batch barrier, poison a
//! worker, or abort the process: the panic is recorded as a [`TaskPanic`]
//! (task index, `file:line` site, message), the batch runs to completion,
//! and the pool stays usable for the next batch. [`WorkStealingPool::run`]
//! re-raises a summary panic after the batch so plain data-parallel callers
//! still observe their bugs; [`WorkStealingPool::try_run`] returns the
//! records instead, which is what the campaign engine builds its
//! `Outcome::Crash` classification on.

use crate::lock_clean::{lock_clean, wait_clean};
use crate::panics::catch_quiet;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle thread watches an atomic before it parks. Long enough
/// to span the driver-side work between two dispatches of a sharded decode
/// step (tens of microseconds), short enough that an idle pool is asleep
/// before anyone could measure it. A time, not a round count: one `PAUSE`
/// is 40–140 cycles depending on the core.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Poll `ready` until it holds or [`SPIN_BUDGET`] is spent; `true` if it
/// held.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if t0.elapsed() >= SPIN_BUDGET {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Type-erased batch task: `run(task_index)`.
type BatchFn = Arc<dyn Fn(usize) + Send + Sync>;

/// One task panic caught during a batch.
#[derive(Clone, Debug)]
pub struct TaskPanic {
    /// The task index whose closure panicked.
    pub index: usize,
    /// `file:line` of the panic, when known.
    pub site: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} panicked at {}: {}",
            self.index, self.site, self.message
        )
    }
}

struct BatchState {
    /// Task closure for the current batch (None between batches).
    job: Mutex<Option<BatchFn>>,
    /// Per-worker block deques; slot `threads` belongs to the caller.
    queues: Vec<Mutex<VecDeque<(usize, usize)>>>,
    /// Tasks remaining in the current batch.
    remaining: AtomicUsize,
    /// Workers currently holding a clone of the batch closure. Only ever
    /// incremented while holding the `job` lock with the job still `Some`,
    /// so once `try_run` has retired the job no worker can join the batch;
    /// `try_run` then waits for this to hit zero so no borrow of the
    /// caller's stack outlives it.
    active: AtomicUsize,
    /// Panics caught during the current batch, in discovery order.
    panics: Mutex<Vec<TaskPanic>>,
    /// Latest published batch generation; bumped only by `try_run`.
    generation: AtomicUsize,
    /// Workers parked on `work_cv` or committed to parking. Changed only
    /// under `work_mx`.
    sleepers: AtomicUsize,
    /// Guards the workers' wait for a new generation.
    work_mx: Mutex<()>,
    /// Signalled when a new batch is published while a worker sleeps, or
    /// shutdown is requested.
    work_cv: Condvar,
    /// The caller is parked on `done_cv` or committed to parking. Changed
    /// only under `done_mx`.
    caller_waiting: AtomicBool,
    /// Guards the batch-completion wait.
    done_mx: Mutex<()>,
    /// Signalled when `remaining` reaches zero or a worker goes inactive
    /// while the caller sleeps.
    done_cv: Condvar,
    shutdown: AtomicBool,
}

impl BatchState {
    /// Pop a block: own queue from the back, siblings from the front.
    fn take_block(&self, own: usize) -> Option<(usize, usize)> {
        if let Some(b) = lock_clean(&self.queues[own]).pop_back() {
            return Some(b);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(b) = lock_clean(&self.queues[victim]).pop_front() {
                return Some(b);
            }
        }
        None
    }

    /// Run one block of tasks, isolating per-task panics, then retire it.
    fn run_block(&self, job: &BatchFn, lo: usize, hi: usize) {
        for i in lo..hi {
            if let Err(caught) = catch_quiet(|| job(i)) {
                let mut panics = lock_clean(&self.panics);
                panics.push(TaskPanic {
                    index: i,
                    site: caught.site,
                    message: caught.message,
                });
            }
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.signal_done();
        }
    }

    /// Publish the batch already placed in `job` and `queues`. The bump
    /// comes before the read of `sleepers`: a worker that registered too
    /// late to be seen here re-reads `generation` after registering and
    /// finds the bump.
    fn publish(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            let _g = lock_clean(&self.work_mx);
            self.work_cv.notify_all();
        }
    }

    /// Caller side of the done pair: wait until `counter` (`remaining` or
    /// `active`) is zero.
    fn wait_zero(&self, counter: &AtomicUsize) {
        let zero = || counter.load(Ordering::SeqCst) == 0;
        if spin_until(zero) {
            return;
        }
        let mut guard = lock_clean(&self.done_mx);
        self.caller_waiting.store(true, Ordering::SeqCst);
        while !zero() {
            guard = wait_clean(&self.done_cv, guard);
        }
        self.caller_waiting.store(false, Ordering::SeqCst);
    }

    /// Finisher side of the done pair, called after the decrement of
    /// `remaining` or `active`: a caller that registered too late to be
    /// seen here re-reads the counter after registering.
    fn signal_done(&self) {
        if self.caller_waiting.load(Ordering::SeqCst) {
            let _g = lock_clean(&self.done_mx);
            self.done_cv.notify_all();
        }
    }
}

/// A fixed-size pool of worker threads with per-worker deques and lock-based
/// stealing. See the module docs for the execution and panic model.
pub struct WorkStealingPool {
    state: Arc<BatchState>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkStealingPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let state = Arc::new(BatchState {
            job: Mutex::new(None),
            // One deque per worker plus one for the caller thread.
            queues: (0..=threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            remaining: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            work_mx: Mutex::new(()),
            work_cv: Condvar::new(),
            caller_waiting: AtomicBool::new(false),
            done_mx: Mutex::new(()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });

        let mut handles = Vec::with_capacity(threads);
        for wid in 0..threads {
            let state = Arc::clone(&state);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ft2-worker-{wid}"))
                    .spawn(move || worker_loop(wid, state))
                    .expect("failed to spawn pool worker"),
            );
        }
        WorkStealingPool {
            state,
            handles,
            threads,
        }
    }

    /// Pool with `FT2_THREADS` workers if that is set to a number ≥ 1,
    /// otherwise one per available core (and always at least one).
    pub fn with_default_threads() -> Self {
        let threads = std::env::var("FT2_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
            .unwrap_or(1);
        Self::new(threads)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `f(i)` for all `i in 0..n` on the pool in blocks of `grain`,
    /// blocking until the whole batch completes. Panicking tasks are
    /// isolated (the batch still completes and the pool stays usable);
    /// returns every caught panic in task-discovery order.
    pub fn try_run<F>(&self, n: usize, grain: usize, f: F) -> Vec<TaskPanic>
    where
        F: Fn(usize) + Send + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let grain = grain.max(1);
        // Invariant upheld for the transmute below: no clone of the batch
        // closure outlives this call. A worker clones it only out of
        // `state.job`, and counts itself into `active` under that same
        // lock; this function retires the job (`None`, under the lock) once
        // `remaining == 0` and only then waits for `active == 0`. A worker
        // that locked `job` before the retirement is therefore counted and
        // waited for (it drops its clone before decrementing `active`); one
        // that locks it after finds `None` and never sees the closure. The
        // caller-held clones are dropped below, before the waits.
        let boxed: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(f);
        // SAFETY: erases only the closure's lifetime to 'static (same fat
        // pointer layout); sound because no reference derived from `f`
        // survives this call, per the join-under-the-`job`-lock and
        // retire-before-the-final-wait invariant above.
        let boxed: BatchFn = unsafe { std::mem::transmute(boxed) };

        let blocks = n.div_ceil(grain);
        self.state.remaining.store(blocks, Ordering::SeqCst);
        lock_clean(&self.state.panics).clear();
        *lock_clean(&self.state.job) = Some(Arc::clone(&boxed));

        // Distribute blocks round-robin over all deques (workers + caller).
        let slots = self.state.queues.len();
        let mut lo = 0;
        let mut slot = 0;
        while lo < n {
            let hi = (lo + grain).min(n);
            lock_clean(&self.state.queues[slot]).push_back((lo, hi));
            slot = (slot + 1) % slots;
            lo = hi;
        }

        self.state.publish();

        // Help out from the calling thread (its deque is slot `threads`).
        while let Some((lo, hi)) = self.state.take_block(self.threads) {
            self.state.run_block(&boxed, lo, hi);
        }
        drop(boxed);

        // Wait until every block has run, retire the job so no further
        // worker can count itself in, then wait until every worker that did
        // has dropped its clone of the batch closure (so borrows of the
        // caller's stack cannot outlive this call).
        self.state.wait_zero(&self.state.remaining);
        *lock_clean(&self.state.job) = None;
        self.state.wait_zero(&self.state.active);
        std::mem::take(&mut *lock_clean(&self.state.panics))
    }

    /// Like [`WorkStealingPool::try_run`], but re-raises a summary panic
    /// after the batch completes if any task panicked. The barrier still
    /// cannot deadlock and the pool stays usable afterwards.
    pub fn run<F>(&self, n: usize, grain: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let panics = self.try_run(n, grain, f);
        if let Some(first) = panics.first() {
            panic!("{} pool task(s) panicked; first: {}", panics.len(), first);
        }
    }

    /// Parallel map on the pool: results in input-index order. Panics (after
    /// completing the batch) if any task panicked, since the output vector
    /// would otherwise contain uninitialised slots.
    pub fn map<T, R, F>(&self, items: &[T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Send + Sync,
    {
        let n = items.len();
        let mut out: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: `MaybeUninit<R>` needs no initialisation, and the capacity
        // reserved above is exactly `n`.
        #[allow(clippy::uninit_vec)]
        unsafe {
            out.set_len(n);
        }
        let out_ptr = SendPtr(out.as_mut_ptr());
        self.run(n, grain, |i| {
            let r = f(i, &items[i]);
            // SAFETY: each index written exactly once.
            unsafe {
                out_ptr.get().add(i).write(MaybeUninit::new(r));
            }
        });
        // SAFETY: all slots initialised by the completed batch (run panics
        // — leaking the Vec, which is safe — when any task failed).
        unsafe {
            let mut v = std::mem::ManuallyDrop::new(out);
            Vec::from_raw_parts(v.as_mut_ptr() as *mut R, v.len(), v.capacity())
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = lock_clean(&self.state.work_mx);
            self.state.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(wid: usize, state: Arc<BatchState>) {
    let mut seen_gen = 0usize;
    loop {
        // Wait for a new batch (or shutdown): hot for the spin budget, then
        // parked. Registering in `sleepers` comes before the re-read of
        // `generation` that the `while` starts with, so a publisher that
        // read `sleepers == 0` has already made its bump visible here.
        let news = || {
            state.generation.load(Ordering::SeqCst) != seen_gen
                || state.shutdown.load(Ordering::SeqCst)
        };
        if !spin_until(news) {
            let mut g = lock_clean(&state.work_mx);
            state.sleepers.fetch_add(1, Ordering::SeqCst);
            while !news() {
                g = wait_clean(&state.work_cv, g);
            }
            state.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        seen_gen = state.generation.load(Ordering::SeqCst);
        // Join the batch under the `job` lock: `try_run` retires the job
        // under the same lock before its final `active == 0` wait, so a
        // worker is either counted before that wait or finds `None` here.
        let job = {
            let slot = lock_clean(&state.job);
            let Some(job) = slot.as_ref() else { continue };
            state.active.fetch_add(1, Ordering::SeqCst);
            Arc::clone(job)
        };

        // Drain: own deque from the back, then steal siblings' fronts.
        while let Some((lo, hi)) = state.take_block(wid) {
            state.run_block(&job, lo, hi);
        }

        // Drop the closure clone *before* signalling inactivity.
        drop(job);
        state.active.fetch_sub(1, Ordering::SeqCst);
        state.signal_done();
    }
}

struct SendPtr<T>(*mut T);
// SAFETY: SendPtr only smuggles a raw pointer across the pool's thread
// boundary; every dereference goes through `run`'s disjoint-index batches,
// so no two threads ever write the same slot.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared access is read-only pointer arithmetic (`get().add(i)`);
// writes target disjoint indices as above.
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_executes_every_index_once() {
        let pool = WorkStealingPool::new(4);
        let hits = AtomicU64::new(0);
        let sum = AtomicU64::new(0);
        pool.run(10_000, 32, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10_000);
        assert_eq!(sum.load(Ordering::Relaxed), 9999u64 * 10_000 / 2);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkStealingPool::new(3);
        for batch in 0..5 {
            let hits = AtomicU64::new(0);
            pool.run(1000 + batch, 16, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 1000 + batch as u64);
        }
    }

    #[test]
    fn map_preserves_order_with_irregular_cost() {
        let pool = WorkStealingPool::new(4);
        let items: Vec<u64> = (0..2000).collect();
        let out = pool.map(&items, 8, |i, &x| {
            // Make cost irregular to exercise stealing.
            if x % 97 == 0 {
                std::thread::yield_now();
            }
            x * 2 + i as u64
        });
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 2 + i as u64)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkStealingPool::new(2);
        pool.run(0, 8, |_| panic!("should not run"));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = WorkStealingPool::new(1);
        let hits = AtomicU64::new(0);
        pool.run(100, 7, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        for _ in 0..10 {
            let pool = WorkStealingPool::new(4);
            pool.run(100, 4, |_| {});
            drop(pool);
        }
    }

    #[test]
    fn panicking_task_does_not_deadlock_or_poison() {
        let pool = WorkStealingPool::new(4);
        let hits = AtomicU64::new(0);
        let panics = pool.try_run(1000, 8, |i| {
            if i % 250 == 3 {
                panic!("injected failure at {i}");
            }
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // Every non-panicking task ran; every panicking one was recorded.
        assert_eq!(hits.load(Ordering::Relaxed), 996);
        assert_eq!(panics.len(), 4);
        let mut indices: Vec<usize> = panics.iter().map(|p| p.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![3, 253, 503, 753]);
        assert!(panics[0].message.starts_with("injected failure"));
        assert!(
            panics[0].site.contains("pool.rs"),
            "site: {}",
            panics[0].site
        );

        // The pool is immediately reusable.
        let hits = AtomicU64::new(0);
        assert!(pool
            .try_run(500, 16, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .is_empty());
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn run_repropagates_panics_after_completion() {
        let pool = WorkStealingPool::new(2);
        let err = crate::panics::catch_quiet(|| {
            pool.run(64, 4, |i| {
                if i == 10 {
                    panic!("boom");
                }
            });
        })
        .unwrap_err();
        assert!(
            err.message.contains("1 pool task(s) panicked"),
            "{}",
            err.message
        );
        assert!(err.message.contains("task 10"), "{}", err.message);

        // Still usable after the propagated panic.
        let hits = AtomicU64::new(0);
        pool.run(32, 4, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }
}
