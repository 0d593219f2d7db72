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
//!
//! # How the threads wait
//!
//! Since the handoff went hot (a thread watches an atomic for the pool's
//! spin budget before it parks, and is notified only if it registered as a
//! sleeper), a publish can meet a worker that is spinning, one that is
//! between its last look and its park, and one that is asleep — and a
//! completion can meet the caller in the same three states. The second half
//! of this file is about that:
//!
//! * a seeded schedule that puts 0, ½, 1, 2 and 10 spin budgets between
//!   batches and makes one task last 0 to 2 of them, so all three states
//!   meet a publish and a completion, each case under a watchdog that fails
//!   the test instead of hanging it;
//! * pools dropped while their workers spin;
//! * the CPU time a pool's workers use while it is left alone (none: they
//!   really park), and that the next publish gets all of them up again;
//! * and, because none of those can show that a wake-up is never lost, an
//!   exhaustive walk over every interleaving of the protocol's atomic steps
//!   (`no_schedule_loses_a_wakeup`), for the work pair and the done pair,
//!   which also shows that each registration and each re-read is load-bearing:
//!   the walk finds a parked-forever schedule as soon as one is left out.
//!
//! What the running tests caught when the real `pool.rs` was broken on
//! purpose (release build, 2-core VM), each as a watchdog failure rather
//! than a hang: the caller's registration deleted — the schedule test; the
//! workers' registration deleted — the idle test's second all-hands batch
//! never gets its workers (its own 30 s limit); the workers' re-read
//! deleted — `drop_while_workers_spin`, where a worker that had decided to
//! park as the flag rose sleeps through the only notify it will get (the
//! same omission on the publish side is invisible: a worker that misses a
//! publish is merely absent from a batch the caller finishes alone); the
//! caller's re-read deleted — only the two-million-batch hammer (parked for
//! good within seconds in three runs of four), which is why that runs
//! under the watchdog as well. Four out of four, but by weight of numbers
//! on windows tens of nanoseconds wide at the end of a 50 µs spin; the
//! model is the argument, these are its smoke alarms.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use ft2_parallel::WorkStealingPool;

const BATCHES: u64 = 2_000_000;

/// A hammer run takes seconds (15 s unoptimised on two cores); one that is
/// still going after this has parked a thread for good.
const HAMMER_LIMIT: Duration = Duration::from_secs(300);

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
    assert_eq!(
        under_watchdog("hammer, 1 worker", HAMMER_LIMIT, || hammer(1)),
        (0, 0)
    );
}

#[test]
fn two_worker_pool_never_runs_a_foreign_closure() {
    assert_eq!(
        under_watchdog("hammer, 2 workers", HAMMER_LIMIT, || hammer(2)),
        (0, 0)
    );
}

/// `pool.rs`'s private `SPIN_BUDGET`, restated: the schedules below are
/// laid out around it. If the two drift apart the tests still pass; they
/// only straddle the real edge less well.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Run `case` on a thread of its own and fail, instead of hanging, if it is
/// still running after `limit` — which is what a lost wake-up looks like.
/// (The hung thread is left behind; the test has failed by then.)
fn under_watchdog<T: Send + 'static>(
    what: &str,
    limit: Duration,
    case: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(case());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            runner.join().expect("the case has already returned");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {limit:?}"),
        // The case panicked before it could send: pass its panic on.
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("{what}: the case returned without sending"),
        },
    }
}

/// Keep the calling thread busy (not asleep) for `gap`.
fn busy_wait(gap: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < gap {
        std::hint::spin_loop();
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn publishes_meet_spinning_parking_and_parked_workers() {
    /// Gaps between batches, in halves of the spin budget.
    const GAP_HALVES: [u32; 5] = [0, 1, 2, 4, 20];
    const BATCHES: u64 = 4_000;
    for workers in [1usize, 2, 3] {
        let what = format!("gap schedule on {workers} worker(s)");
        let lost = under_watchdog(&what, Duration::from_secs(120), move || {
            let pool = WorkStealingPool::new(workers);
            let mut rng = 0x5EED_0000 + workers as u64;
            let mut lost = 0u64;
            for batch in 0..BATCHES {
                let r = xorshift(&mut rng);
                // Jittered by ±1/8 so publishes sweep across the budget's
                // edge instead of always landing on one side of it.
                let gap = SPIN_BUDGET / 2 * GAP_HALVES[(r % 5) as usize];
                let gap = gap * (7 + (r >> 8) as u32 % 3) / 8;
                if gap > SPIN_BUDGET * 4 {
                    // Long gaps free the core, so the workers' parking runs
                    // against an idle machine as well as a busy one.
                    std::thread::sleep(gap);
                } else {
                    busy_wait(gap);
                }
                let n = 2 + (r >> 16) as usize % 4;
                // Task 0 (dealt to a worker) lasts 0 to 2 budgets, jittered
                // the same way, so the caller's wait for the batch meets
                // its completion while spinning, parking and parked.
                let work = SPIN_BUDGET / 2 * [0, 0, 1, 2, 4][(r >> 24) as usize % 5];
                let work = work * (7 + (r >> 32) as u32 % 3) / 8;
                let hits: [AtomicU32; 5] = Default::default();
                let panics = pool.try_run(n, 1, |i| {
                    if i == 0 {
                        busy_wait(work);
                    }
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(panics.is_empty(), "batch {batch}: {}", panics[0]);
                lost += hits[..n]
                    .iter()
                    .filter(|h| h.load(Ordering::Relaxed) != 1)
                    .count() as u64;
            }
            lost
        });
        assert_eq!(lost, 0, "{what}: blocks lost or run twice");
    }
}

#[test]
fn drop_while_workers_spin() {
    under_watchdog("drop mid-spin", Duration::from_secs(120), || {
        for round in 0..400u32 {
            let pool = WorkStealingPool::new(3);
            pool.run(4, 1, |_| {});
            // 0 to 2 budgets after the batch: the workers are spinning,
            // about to park, or just parked when the shutdown flag rises.
            busy_wait(SPIN_BUDGET / 2 * (round % 5));
            drop(pool);
        }
    });
}

/// CPU time thread `tid` of this process has used, in clock ticks (user +
/// system, fields 14 and 15 of its `stat`).
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(tid: u64) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("thread stat");
    // The command name (field 2) may contain spaces; count from its `)`.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let mut fields = rest.split(' ').skip(11);
    let utime: u64 = fields.next().expect("utime").parse().expect("utime");
    let stime: u64 = fields.next().expect("stime").parse().expect("stime");
    utime + stime
}

/// The calling thread's kernel thread id.
#[cfg(target_os = "linux")]
fn current_tid() -> u64 {
    let me = std::fs::read_link("/proc/thread-self").expect("thread-self");
    let tid = me.file_name().and_then(|n| n.to_str()).expect("tid");
    tid.parse().expect("tid")
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_pool_uses_no_cpu_and_wakes_when_called() {
    const WORKERS: usize = 3;
    let pool = WorkStealingPool::new(WORKERS);
    // One task per thread of the pool (workers and caller), none of which
    // returns before all have started: the batch cannot complete unless
    // every worker joins it, and each leaves its thread id behind.
    let all_hands = || {
        let started = AtomicUsize::new(0);
        let tids: [AtomicU64; WORKERS + 1] = Default::default();
        let t0 = Instant::now();
        pool.run(WORKERS + 1, 1, |i| {
            tids[i].store(current_tid(), Ordering::SeqCst);
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) <= WORKERS {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "a worker never joined the batch"
                );
                std::thread::yield_now();
            }
        });
        let caller = current_tid();
        let workers: Vec<u64> = tids
            .iter()
            .map(|t| t.load(Ordering::SeqCst))
            .filter(|&t| t != caller)
            .collect();
        assert_eq!(workers.len(), WORKERS);
        workers
    };
    let workers = all_hands();

    // Well past the spin budget, every worker is parked.
    std::thread::sleep(Duration::from_millis(20));
    let before: Vec<u64> = workers.iter().map(|&t| thread_cpu_ticks(t)).collect();
    std::thread::sleep(Duration::from_millis(200));
    for (&tid, &before) in workers.iter().zip(&before) {
        // A tick is 10 ms: a worker spinning through the 200 ms would
        // charge 20 of them, a parked one none (one, if a tick boundary
        // falls badly).
        let used = thread_cpu_ticks(tid) - before;
        assert!(
            used <= 1,
            "worker thread {tid} used {used} ticks of CPU while the pool was idle"
        );
    }
    // A publish reaches every one of the parked workers: the caller cannot
    // finish this batch on its own.
    all_hands();
}

// ---- The sleep/wake protocol, every schedule --------------------------------
//
// Both of the pool's waits are one two-party protocol (`pool.rs`, module
// docs, "Waiting"):
//
//   signaller: raise the flag · read `registered` · [lock · notify · unlock]
//   sleeper:   look at the flag a last time (budget spent) · lock · register ·
//              re-read the flag · wait (unlock + park, atomically) · …woken:
//              lock · look again · … · unregister · unlock
//
// In the *work* pair the signaller is `publish` (the flag: `generation`
// bumped; `registered`: `sleepers`), the sleeper a worker, the lock
// `work_mx`. In the *done* pair the signaller is a finishing worker, the
// sleeper `try_run`'s caller, the lock `done_mx`, and there are two flags
// awaited in turn — `remaining == 0`, then `active == 0` — behind the one
// `caller_waiting` word, so a late notify for the first can land in the
// second wait. Every step above is one atomic action on `SeqCst` words or
// a mutex operation, so the set of interleavings of the two programs is
// exactly the set of behaviours; the walk below visits all of them.

/// What a deliberately broken variant of the protocol leaves out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Omit {
    Nothing,
    /// The sleeper does not announce itself before it waits.
    Registration,
    /// The sleeper waits on the strength of its last look from before it
    /// took the lock (it still looks again after every wake-up).
    Reread,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Signaller {
    Raise,
    ReadRegistered,
    Lock,
    Notify,
    Unlock,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Sleeper {
    LastLook,
    Lock,
    Register,
    Reread,
    Wait,
    /// Inside `Condvar::wait`, mutex released.
    Parked,
    /// Notified; has to take the mutex back before `wait` returns.
    Relock,
    LookAgain,
    Unregister,
    Unlock,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Party {
    Signaller,
    Sleeper,
}

/// The whole state of one run: the shared words, the mutex, and where each
/// party is — `(phase, step)`, or `None` when it has finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct World {
    raised: [bool; 2],
    registered: bool,
    mutex: Option<Party>,
    signaller: Option<(usize, Signaller)>,
    sleeper: Option<(usize, Sleeper)>,
}

/// The states `party` can move `w` to in one step (none: finished, or
/// blocked on the mutex, or parked).
fn step(w: World, party: Party, phases: usize, omit: Omit) -> Option<World> {
    let mut n = w;
    let next_phase = |k: usize| (k + 1 < phases).then_some(k + 1);
    match party {
        Party::Signaller => {
            let (k, at) = w.signaller?;
            n.signaller = match at {
                Signaller::Raise => {
                    n.raised[k] = true;
                    Some((k, Signaller::ReadRegistered))
                }
                Signaller::ReadRegistered if w.registered => Some((k, Signaller::Lock)),
                Signaller::ReadRegistered => next_phase(k).map(|k| (k, Signaller::Raise)),
                Signaller::Lock => {
                    if w.mutex.is_some() {
                        return None;
                    }
                    n.mutex = Some(Party::Signaller);
                    Some((k, Signaller::Notify))
                }
                Signaller::Notify => {
                    // A notify with nobody parked is lost, as a condvar's is.
                    if let Some((ks, Sleeper::Parked)) = w.sleeper {
                        n.sleeper = Some((ks, Sleeper::Relock));
                    }
                    Some((k, Signaller::Unlock))
                }
                Signaller::Unlock => {
                    n.mutex = None;
                    next_phase(k).map(|k| (k, Signaller::Raise))
                }
            };
        }
        Party::Sleeper => {
            let (k, at) = w.sleeper?;
            let done = next_phase(k).map(|k| (k, Sleeper::LastLook));
            n.sleeper = match at {
                Sleeper::LastLook if w.raised[k] => done,
                Sleeper::LastLook => Some((k, Sleeper::Lock)),
                Sleeper::Lock | Sleeper::Relock => {
                    if w.mutex.is_some() {
                        return None;
                    }
                    n.mutex = Some(Party::Sleeper);
                    let first = at == Sleeper::Lock;
                    Some((
                        k,
                        if first {
                            Sleeper::Register
                        } else {
                            Sleeper::LookAgain
                        },
                    ))
                }
                Sleeper::Register => {
                    n.registered = omit != Omit::Registration;
                    Some((
                        k,
                        if omit == Omit::Reread {
                            Sleeper::Wait
                        } else {
                            Sleeper::Reread
                        },
                    ))
                }
                Sleeper::Reread | Sleeper::LookAgain if w.raised[k] => {
                    Some((k, Sleeper::Unregister))
                }
                Sleeper::Reread | Sleeper::LookAgain => Some((k, Sleeper::Wait)),
                Sleeper::Wait => {
                    n.mutex = None;
                    Some((k, Sleeper::Parked))
                }
                Sleeper::Parked => return None,
                Sleeper::Unregister => {
                    n.registered = false;
                    Some((k, Sleeper::Unlock))
                }
                Sleeper::Unlock => {
                    n.mutex = None;
                    done
                }
            };
        }
    }
    Some(n)
}

/// Walk every interleaving; return how many distinct states were seen and
/// the stuck ones — no party can move, yet not both have finished.
fn explore(phases: usize, omit: Omit) -> (usize, Vec<World>) {
    let start = World {
        raised: [false; 2],
        registered: false,
        mutex: None,
        signaller: Some((0, Signaller::Raise)),
        sleeper: Some((0, Sleeper::LastLook)),
    };
    let mut seen = BTreeSet::from([start]);
    let mut todo = vec![start];
    let mut stuck = Vec::new();
    while let Some(w) = todo.pop() {
        let moves = [Party::Signaller, Party::Sleeper].map(|p| step(w, p, phases, omit));
        if moves.iter().all(Option::is_none) && (w.signaller.is_some() || w.sleeper.is_some()) {
            stuck.push(w);
        }
        for n in moves.into_iter().flatten() {
            if seen.insert(n) {
                todo.push(n);
            }
        }
    }
    (seen.len(), stuck)
}

#[test]
fn no_schedule_loses_a_wakeup() {
    // One flag: the work pair. Two flags behind one registration word: the
    // done pair.
    for (pair, phases) in [("work", 1usize), ("done", 2)] {
        let (states, stuck) = explore(phases, Omit::Nothing);
        assert!(
            states > 20 * phases,
            "{pair}: the walk saw only {states} states"
        );
        assert!(
            stuck.is_empty(),
            "{pair}: a schedule ends in {:?}",
            stuck[0]
        );

        // The protocol has no slack: without either half of the Dekker
        // pair some schedule parks the sleeper for good with its flag up.
        for omit in [Omit::Registration, Omit::Reread] {
            let (_, stuck) = explore(phases, omit);
            assert!(
                !stuck.is_empty(),
                "{pair}: no schedule is lost without {omit:?}"
            );
            for w in &stuck {
                let (k, at) = w.sleeper.expect("the stuck party is the sleeper");
                assert_eq!(at, Sleeper::Parked, "{pair} without {omit:?}: {w:?}");
                assert!(
                    w.raised[k] && w.signaller.is_none(),
                    "{pair} without {omit:?}: {w:?}"
                );
            }
        }
    }
}
