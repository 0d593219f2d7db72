//! Per-shard heartbeat watchdog for multi-worker (sharded) execution.
//!
//! The per-*trial* watchdog ([`ft2-fault`'s deadline/token budget]) treats
//! a hang as a property of the whole generation: a single stuck worker
//! burns the entire `FT2_TRIAL_DEADLINE_MS` budget and the trial reports a
//! trial-level `Hang`. For sharded execution that is the wrong granularity
//! — one hung shard should trip *shard isolation* (re-execute, evict,
//! degrade) within a heartbeat interval, leaving the trial budget and the
//! other shards untouched.
//!
//! The protocol is cooperative, mirroring how a GPU driver watchdog
//! resets a stuck stream:
//!
//! 1. the driver arms shard `i` with [`ShardHeartbeat::begin`] before
//!    dispatching its task;
//! 2. a healthy task finishes in microseconds and disarms with
//!    [`ShardHeartbeat::end`];
//! 3. a hung task stops beating; the [`HeartbeatMonitor`] thread notices
//!    the stale beat after the timeout and sets the shard's cancel flag;
//! 4. the stuck task observes [`ShardHeartbeat::is_cancelled`] and panics,
//!    which the pool's per-task panic isolation converts into a
//!    [`crate::TaskPanic`] naming the shard — a *shard-scoped* failure the
//!    executor can isolate, not a trial-scoped deadline burn.
//!
//! The same monitor doubles as the **replica liveness** detector for
//! `ft2-serve`'s cross-replica failover: one slot per replica, armed
//! around each replica's scheduler step. A replica whose step stops
//! beating is cancelled by this monitor and aborts with a typed hang
//! payload the failover router downcasts — one watchdog for both
//! granularities, never two competing ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sentinel beat value meaning "no task in flight on this shard".
const DISARMED: u64 = u64::MAX;

/// Shared heartbeat state: one beat timestamp and one cancel flag per
/// shard. Cloned (via `Arc`) into worker tasks; all operations are
/// lock-free atomics so a beating worker never blocks the monitor.
pub struct ShardHeartbeat {
    /// Milliseconds since `epoch` of each shard's last beat, or
    /// [`DISARMED`].
    beats: Vec<AtomicU64>,
    /// Set by the monitor when a shard's beat goes stale.
    cancel: Vec<AtomicBool>,
    /// Slots evicted from the active partition (degraded-mode serving).
    /// An evicted slot is permanently quiet until [`ShardHeartbeat::reset`]:
    /// `begin`/`beat` are no-ops, the monitor skips it, and
    /// [`ShardHeartbeat::is_cancelled`] reports `false` — a monitor polled
    /// *after* the eviction must never report the dead slot as hung.
    evicted: Vec<AtomicBool>,
    epoch: Instant,
    shutdown: AtomicBool,
}

impl ShardHeartbeat {
    fn new(shards: usize) -> ShardHeartbeat {
        ShardHeartbeat {
            beats: (0..shards).map(|_| AtomicU64::new(DISARMED)).collect(),
            cancel: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            evicted: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.beats.len()
    }

    /// Arm shard `i`: record a fresh beat. Called by the driver just
    /// before dispatching the shard's task. No-op on an evicted slot — a
    /// straggling dispatch cannot re-arm a dead shard.
    pub fn begin(&self, i: usize) {
        if self.evicted[i].load(Ordering::SeqCst) {
            return;
        }
        self.beats[i].store(self.now_ms(), Ordering::SeqCst);
    }

    /// Record liveness for shard `i` (long-running tasks call this
    /// between work items; the simulator's GEMMs finish well inside one
    /// interval, so `begin` alone usually suffices). No-op on an evicted
    /// slot.
    pub fn beat(&self, i: usize) {
        if self.evicted[i].load(Ordering::SeqCst) {
            return;
        }
        self.beats[i].store(self.now_ms(), Ordering::SeqCst);
    }

    /// Disarm shard `i`: the task completed. Stale-beat checks skip
    /// disarmed shards.
    pub fn end(&self, i: usize) {
        self.beats[i].store(DISARMED, Ordering::SeqCst);
    }

    /// Has the monitor asked shard `i` to abort? Always `false` for an
    /// evicted slot: a poll racing the eviction must not misread the dead
    /// shard as freshly hung.
    pub fn is_cancelled(&self, i: usize) -> bool {
        !self.evicted[i].load(Ordering::SeqCst) && self.cancel[i].load(Ordering::SeqCst)
    }

    /// Has slot `i` been evicted from the active partition?
    pub fn is_evicted(&self, i: usize) -> bool {
        self.evicted[i].load(Ordering::SeqCst)
    }

    /// Clear shard `i`'s cancel/evicted flags and disarm it — the driver
    /// calls this after handling a shard failure so the slot can be reused
    /// (re-execution or a repartitioned successor).
    pub fn reset(&self, i: usize) {
        self.evicted[i].store(false, Ordering::SeqCst);
        self.cancel[i].store(false, Ordering::SeqCst);
        self.beats[i].store(DISARMED, Ordering::SeqCst);
    }

    /// Permanently quiesce slot `i` after degraded-mode eviction: the slot
    /// is disarmed, its stale cancel flag is cleared, and every later
    /// `begin`/`beat`/monitor poll ignores it. The ordering (evict flag
    /// first) makes [`ShardHeartbeat::is_cancelled`] report `false` even if
    /// the monitor thread re-cancels the slot mid-eviction.
    pub fn evict(&self, i: usize) {
        self.evicted[i].store(true, Ordering::SeqCst);
        self.beats[i].store(DISARMED, Ordering::SeqCst);
        self.cancel[i].store(false, Ordering::SeqCst);
    }

    /// Force-cancel shard `i` (tests and explicit eviction).
    pub fn cancel(&self, i: usize) {
        self.cancel[i].store(true, Ordering::SeqCst);
    }
}

/// Owns the monitor thread that converts stale beats into cancellations.
/// Dropping the monitor shuts the thread down without waiting out its
/// poll tick.
pub struct HeartbeatMonitor {
    state: Arc<ShardHeartbeat>,
    handle: Option<JoinHandle<()>>,
}

impl HeartbeatMonitor {
    /// Spawn a monitor for `shards` shards with the given stale-beat
    /// timeout. The monitor polls at a quarter of the timeout (at least
    /// every millisecond), so a hung shard is cancelled within roughly
    /// `timeout` to `1.25 × timeout`. Between polls it is parked with
    /// `park_timeout`, which `Drop` cuts short with an `unpark`; any other
    /// unpark only makes it poll early, and a poll compares beats against
    /// the clock, so an early one can neither miss nor invent a stale beat.
    ///
    /// A **zero timeout disables the watchdog**: a warning is printed and
    /// no monitor thread is spawned (the old behaviour — clamping to 1 ms —
    /// turned "disabled" into a 1 ms spin loop that cancelled every armed
    /// shard almost immediately). `is_cancelled` then always reports
    /// `false` and hang isolation falls back to the callers' own deadlines.
    pub fn spawn(shards: usize, timeout: Duration) -> HeartbeatMonitor {
        let state = Arc::new(ShardHeartbeat::new(shards));
        if timeout.is_zero() {
            eprintln!(
                "warning: shard heartbeat timeout is 0 — hang watchdog disabled (no monitor thread)"
            );
            return HeartbeatMonitor {
                state,
                handle: None,
            };
        }
        let watcher = Arc::clone(&state);
        let timeout_ms = timeout.as_millis().max(1) as u64;
        let poll = Duration::from_millis((timeout_ms / 4).max(1));
        let handle = std::thread::Builder::new()
            .name("ft2-shard-heartbeat".into())
            .spawn(move || loop {
                if watcher.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = watcher.now_ms();
                for i in 0..watcher.beats.len() {
                    if watcher.evicted[i].load(Ordering::SeqCst) {
                        continue;
                    }
                    let beat = watcher.beats[i].load(Ordering::SeqCst);
                    if beat != DISARMED && now.saturating_sub(beat) > timeout_ms {
                        watcher.cancel[i].store(true, Ordering::SeqCst);
                    }
                }
                std::thread::park_timeout(poll);
            })
            .expect("spawn heartbeat monitor");
        HeartbeatMonitor {
            state,
            handle: Some(handle),
        }
    }

    /// Is the watchdog actually running? `false` when a zero timeout
    /// disabled it at spawn time.
    pub fn armed(&self) -> bool {
        self.handle.is_some()
    }

    /// The shared state to hand to worker tasks.
    pub fn state(&self) -> Arc<ShardHeartbeat> {
        Arc::clone(&self.state)
    }
}

impl Drop for HeartbeatMonitor {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_shard_is_never_cancelled() {
        let mon = HeartbeatMonitor::spawn(2, Duration::from_millis(20));
        let hb = mon.state();
        hb.begin(0);
        hb.end(0);
        std::thread::sleep(Duration::from_millis(60));
        assert!(!hb.is_cancelled(0));
        assert!(!hb.is_cancelled(1), "disarmed shards must not be cancelled");
    }

    #[test]
    fn stale_shard_is_cancelled_within_the_timeout() {
        let mon = HeartbeatMonitor::spawn(3, Duration::from_millis(10));
        let hb = mon.state();
        hb.begin(1);
        // Shard 1 never beats again: the monitor must cancel it, and only it.
        let t0 = Instant::now();
        while !hb.is_cancelled(1) {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "monitor failed to cancel a stale shard"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!hb.is_cancelled(0));
        assert!(!hb.is_cancelled(2));
    }

    #[test]
    fn dropping_a_long_timeout_monitor_returns_promptly() {
        // The poll tick is a quarter of the timeout — 2.5 s here.
        let mon = HeartbeatMonitor::spawn(2, Duration::from_secs(10));
        let hb = mon.state();
        hb.begin(0);
        hb.end(0);
        // Let the monitor finish its first poll and park.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(mon);
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "drop waited {took:?} for the monitor's poll tick"
        );
    }

    #[test]
    fn reset_rearms_a_cancelled_shard() {
        let mon = HeartbeatMonitor::spawn(1, Duration::from_millis(5));
        let hb = mon.state();
        hb.begin(0);
        while !hb.is_cancelled(0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        hb.reset(0);
        assert!(!hb.is_cancelled(0));
        // Disarmed after reset: no further cancellation.
        std::thread::sleep(Duration::from_millis(25));
        assert!(!hb.is_cancelled(0));
    }

    #[test]
    fn zero_timeout_disables_the_watchdog() {
        let mon = HeartbeatMonitor::spawn(2, Duration::ZERO);
        assert!(!mon.armed(), "zero timeout must not spawn a monitor thread");
        let hb = mon.state();
        // Arm a shard and never beat again: with the watchdog disabled the
        // shard must never be cancelled, no matter how stale the beat is.
        hb.begin(0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!hb.is_cancelled(0));
        assert!(!hb.is_cancelled(1));
    }

    #[test]
    fn evicted_shard_is_not_reported_hung() {
        let mon = HeartbeatMonitor::spawn(2, Duration::from_millis(5));
        let hb = mon.state();
        hb.begin(0);
        while !hb.is_cancelled(0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        hb.evict(0);
        assert!(
            !hb.is_cancelled(0),
            "eviction must clear the stale cancel flag"
        );
        assert!(hb.is_evicted(0));
        // A straggling dispatch cannot re-arm the dead slot, so the monitor
        // polled well past the timeout must never report it hung again.
        hb.begin(0);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!hb.is_cancelled(0), "monitor re-cancelled an evicted shard");
        assert!(!hb.is_cancelled(1), "eviction must not leak to live shards");
        // Reset reclaims the slot for a repartitioned successor.
        hb.reset(0);
        assert!(!hb.is_evicted(0));
    }

    #[test]
    fn hung_task_observes_cancel_and_can_abort() {
        let mon = HeartbeatMonitor::spawn(1, Duration::from_millis(8));
        let hb = mon.state();
        let worker_hb = mon.state();
        hb.begin(0);
        let h = std::thread::spawn(move || {
            // Simulated hang: no beats, spin until cancelled.
            let t0 = Instant::now();
            while !worker_hb.is_cancelled(0) {
                if t0.elapsed() > Duration::from_secs(2) {
                    return false;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            true
        });
        assert!(h.join().unwrap(), "hung task never saw the cancel flag");
    }
}
