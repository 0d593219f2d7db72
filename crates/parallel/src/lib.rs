#![warn(missing_docs)]
//! # ft2-parallel
//!
//! The parallel execution substrate for the FT2 reproduction.
//!
//! Fault-injection campaigns are embarrassingly parallel (millions of
//! independent inference trials) but individual trials vary wildly in cost —
//! a fault that derails generation early can finish in a fraction of the
//! time of a full 180-token decode. There is one parallel runtime:
//!
//! * [`pool`] — a persistent work-stealing thread pool
//!   ([`pool::WorkStealingPool`]) built purely on `std::sync`: campaigns,
//!   the sharded executor's fan-out and the serving batch step all
//!   dispatch on it, so worker threads are spawned once rather than once
//!   per batch. Every pool task runs under panic isolation: a panicking
//!   trial is recorded as a [`pool::TaskPanic`] instead of deadlocking the
//!   batch or killing a worker (see [`panics`]).
//! * [`heartbeat`] — per-shard liveness slots and the monitor thread that
//!   cancels a shard whose heartbeat went stale.
//! * [`mod@lock_clean`] — poison-recovering lock helpers ([`lock_clean()`],
//!   [`wait_clean()`]), the only sanctioned `Mutex::lock` and
//!   `Condvar::wait` calls (`clippy.toml` disallows the rest).
//!
//! Determinism contract: the pool writes results by *task index*, so the
//! output of a parallel run is identical to the sequential run regardless
//! of thread count or scheduling. Randomised workloads must derive their
//! RNG stream from the task index (see `ft2_numeric::rng`), never from
//! thread identity.

pub mod heartbeat;
pub mod lock_clean;
pub mod panics;
pub mod pool;

pub use heartbeat::{HeartbeatMonitor, ShardHeartbeat};
pub use lock_clean::{lock_clean, wait_clean};
pub use panics::{catch_quiet, CaughtPanic};
pub use pool::{TaskPanic, WorkStealingPool};
