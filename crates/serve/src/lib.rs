#![warn(missing_docs)]
//! # ft2-serve
//!
//! A continuous-batching serving runtime with per-request fault isolation,
//! extending the FT2 reproduction from single-generation fault tolerance
//! to a multi-request server. The paper's online detect/rollback loop
//! protects one generation; a server must protect many at once *without
//! letting one faulty request stall or corrupt its batchmates*.
//!
//! * [`arena`] — paged per-request KV storage: [`arena::KvArena`] owns one
//!   K/V slab per decoder block carved into fixed pages,
//!   [`arena::KvSeq`] maps a request's positions onto its pages, and
//!   [`KvGuard`] — `ft2-core`'s one KV guard, re-exported — seals each
//!   accepted position for the repair rung. Requests allocate, roll back,
//!   and free pages independently.
//! * [`engine`] — the serving passes of the layer walk
//!   ([`ft2_model::walk`]): [`engine::batch_step`] advances every lane one
//!   token and [`engine::prefill`] writes a prompt straight into a
//!   request's arena pages — the engine's own code over the paged store
//!   (linears split by rows over the pool on the panel-major batch GEMM,
//!   rows attending in parallel, per-lane taps), so bit-identity per lane
//!   is by construction.
//! * [`scheduler`] — the continuous-batching scheduler and per-request
//!   recovery ladder: a storming lane rolls back and re-decodes its own
//!   token while batchmates keep advancing; the repair rung sweeps the
//!   lane's KV seals and rebuilds corrupted positions; a lane that
//!   exhausts its budget is evicted with a typed
//!   [`scheduler::Outcome`], never stalling the batch.
//! * [`server`] — a threaded front door: submissions from any thread,
//!   bounded admission queue with backpressure, one worker owning the
//!   scheduler and decode pool, graceful drain on shutdown.
//! * [`replica`] — cross-replica failover: [`replica::ReplicaSet`] runs N
//!   independent replicas behind a health-gated router
//!   (`Healthy → Suspect → Quarantined → Rebuilding → Healthy`), fails
//!   in-flight requests over with their accepted-token prefixes intact
//!   (bit-identical continuation), and rebuilds quarantined replicas'
//!   weights live from a golden copy while survivors keep serving.
//! * [`storm`] — a per-request fault-storm injector
//!   ([`storm::StormTap`]) driving tests and the serving bench's
//!   fault-storm drill, scheduled by [`ft2_fault::FaultDuration`].
//! * [`event`] — the live observation stream: schedulers and replica sets
//!   mirror every ladder decision (token accept with its
//!   [`ft2_model::StepReport`], rollback, repair, eviction, completion,
//!   health transitions) onto an [`event::EventSink`] without perturbing
//!   the decode path.
//! * [`web`] — a zero-dependency HTTP/SSE front end
//!   ([`web::WebServer`]): streams [`event::ServeEvent`]s as Server-Sent
//!   Events, serves an embedded single-page viewer, and accepts live
//!   fault injection over `POST /inject`.

pub mod arena;
pub mod engine;
pub mod event;
pub mod replica;
pub mod scheduler;
pub mod server;
pub mod storm;
pub mod web;

pub use arena::{KvArena, KvGuard, KvSeq, KvSlab, KV_PAGE};
pub use engine::{batch_step, prefill, BatchLane, BatchScratch};
pub use event::{EventSink, ServeEvent};
pub use replica::{
    HealthTracker, ReplicaCompletion, ReplicaConfig, ReplicaHealth, ReplicaSet, ReplicaSetStats,
    RetryPolicy,
};
pub use scheduler::{
    Completion, EvictReason, Outcome, RejectReason, Request, Scheduler, ServeConfig, SubmitError,
};
pub use server::Server;
pub use storm::{StormTap, StrikeMode};
pub use web::{WebConfig, WebServer};
