#![warn(missing_docs)]
//! # ft2-fault
//!
//! The fault-injection framework (the paper's §2.2–§2.3).
//!
//! * [`model`] — the three fault models: single-bit flip (*1-bit*),
//!   double-bit flip (*2-bit*), and single-bit flip restricted to exponent
//!   bits (*EXP*, the most aggressive); plus the fault-*duration* taxonomy
//!   (transient / intermittent / persistent) and fault *targets*
//!   (activations / weights / KV cache).
//! * [`site`] — fault-site sampling: a site is `(generation step, block,
//!   layer, element, bits)`, drawn uniformly over all neuron *computations*
//!   of the linear layers in decoder blocks (prefill positions weight the
//!   first step accordingly). One fault per inference, per the paper's
//!   single-fault assumption.
//! * [`inject`] — the injector [`ft2_model::LayerTap`]: corrupts exactly one
//!   stored element of one layer output, in the tensor's storage format.
//! * [`outcome`] — Masked / SDC outcome taxonomy and the judge trait
//!   (implemented on answer spans by `ft2-tasks`).
//! * [`campaign`] — the statistical fault-injection campaign engine: runs
//!   `inputs × trials` independent generations on a work-stealing pool with
//!   per-trial derived RNG streams (bit-reproducible at any thread count)
//!   and aggregates SDC rates with 95% confidence intervals. Trials run
//!   under panic isolation (crashes become [`Outcome::Crash`], watchdog
//!   aborts become [`Outcome::Hang`]) and campaigns checkpoint their
//!   aggregate for bit-identical resume after an interruption.
//! * [`watchdog`] — the per-trial watchdog tap (wall-clock deadline and
//!   generation-step budget) behind the Hang classification.
//! * [`checkpoint`] — crash-safe line-record persistence of partial campaign
//!   results.
//! * [`trace`] — the anomaly-recording tap behind `ft2-repro replay`.
//! * [`shard`] — shard-scoped fault modes ([`ShardFault`]) for the sharded
//!   executor's fault-isolation domains, and the [`classify_sharded`]
//!   mapping into this taxonomy (including [`Outcome::Degraded`]).
//! * [`replica`] — replica-scoped fault modes ([`ReplicaFaultSpec`]:
//!   crash / hang / activation storm across the duration taxonomy) for
//!   the cross-replica failover runtime, and the typed
//!   [`ReplicaHangAbort`] panic payload behind its hang classification
//!   (mapping into [`Outcome::FailedOver`]).
//! * [`live`] — typed faults ([`LiveFault`]) parsed from the web demo's
//!   `POST /inject` control and mapped onto the injectors above.

pub mod campaign;
pub mod checkpoint;
pub mod dmr;
pub mod inject;
pub mod live;
pub mod model;
pub mod outcome;
pub mod replica;
pub mod shard;
pub mod site;
pub mod trace;
pub mod watchdog;

pub use campaign::{
    Campaign, CampaignConfig, CampaignResult, CampaignRun, CheckpointPolicy, ProtectionFactory,
    TrialFailure, TrialRecord, TrialTrace, Unprotected,
};
pub use checkpoint::{CampaignCheckpoint, CHECKPOINT_VERSION};
pub use dmr::{run_dmr_campaign, DmrReport};
pub use inject::{FaultInjector, StateFaultInjector};
pub use live::LiveFault;
pub use model::{FaultDuration, FaultModel, FaultTarget};
pub use outcome::{ExactJudge, Outcome, OutcomeCounts, OutcomeJudge};
pub use replica::{ReplicaFaultKind, ReplicaFaultSpec, ReplicaHangAbort};
pub use shard::{classify_sharded, ShardFault, ShardFaultInjector, ShardFaultSpec};
pub use site::{FaultSite, SiteSampler, StepFilter, StepWeighting};
pub use trace::{TraceEvent, TraceTap};
pub use watchdog::{TrialAbort, WatchdogTap};
