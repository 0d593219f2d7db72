//! Cross-replica failover: health-gated routing, zero-token-loss handoff,
//! and live replica rebuild.
//!
//! The per-request recovery ladder ([`crate::scheduler`]) and the sharded
//! executor's shard isolation handle faults *inside* one serving process.
//! This module adds the rung above the process: a [`ReplicaSet`] runs N
//! independent replicas of the model — each with its own [`Scheduler`] and
//! KV arena — behind a health-aware router, so a replica that crashes,
//! hangs, or degenerates into an activation storm is taken out of rotation
//! while its in-flight requests continue on a survivor.
//!
//! **Health state machine.** Each replica walks
//! `Healthy → Suspect → Quarantined → Rebuilding → Healthy`:
//!
//! ```text
//!            eviction                 breaker trips
//!  Healthy ────────────▶ Suspect ───────────────────▶ Quarantined
//!     ▲                     │                              │
//!     │   clean streak      │      crash / hang            │ begin
//!     └─────────────────────┘  (panic or watchdog abort    │ rebuild
//!     ▲                         jumps straight here) ──────┤
//!     │          rejoin                                    ▼
//!     └──────────────────────────────────────────── Rebuilding
//!                                              (incremental weight sweep)
//! ```
//!
//! Liveness is detected by the *same* [`HeartbeatMonitor`] that guards
//! sharded execution — one monitor, one slot per replica, no second
//! watchdog: a hung replica step stops beating, the monitor cancels the
//! stale slot, and the step aborts with a typed
//! [`ft2_fault::ReplicaHangAbort`] panic the router downcasts to classify
//! the failure. Degenerate replicas (every request storms) are caught by an
//! error-rate circuit breaker: *consecutive* evictions trip quarantine, so
//! a replica that merely flaps (error, clean, error, clean …) is demoted to
//! `Suspect` but never quarantined — the consecutive counter resets on
//! every clean completion.
//!
//! **Zero-token-loss handoff.** The scheduler appends a token only *after*
//! the decode step and recovery ladder accept it, so a panic mid-step
//! leaves every in-flight request with its exact accepted-token prefix.
//! Failover re-admits that prefix on a survivor via
//! [`Scheduler::try_resume`], which recomputes its KV in one tap-less
//! prefill pass of the layer walk over prompt plus accepted tokens — rows
//! bit-identical to the ones the dead replica held, however they were first
//! produced — so the continuation is **bit-identical** to the request's
//! solo generation. No accepted token is ever lost or re-derived
//! differently.
//!
//! **Retry policy.** Failovers are typed and budgeted: each re-route burns
//! one unit of the per-request [`RetryPolicy`] budget and waits out a
//! deterministic jittered exponential backoff; a request that exhausts its
//! budget or its deadline completes with [`Outcome::Rejected`] — never a
//! silent drop.
//!
//! **Live rebuild.** A quarantined replica rebuilds in place: the router
//! sweeps a budget of weight tiles per tick against the golden copy
//! ([`WeightChecksums::sweep`]) while survivors keep serving, then stamps a
//! fresh scheduler from the verified weights and rejoins the replica.
//! Rebuild touches only weights (the KV of a dead replica is discarded —
//! survivors re-prefill), so it is far cheaper than a full restart.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ft2_core::WeightChecksums;
use ft2_fault::{ReplicaFaultKind, ReplicaFaultSpec, ReplicaHangAbort};
use ft2_model::weights::ModelWeights;
use ft2_model::Model;
use ft2_parallel::{catch_quiet, HeartbeatMonitor, WorkStealingPool};

use crate::event::EventSink;
use crate::scheduler::{
    Completion, Outcome, RejectReason, Request, Scheduler, ServeConfig, SubmitError,
};
use crate::storm::StormTap;

/// Cross-replica retry policy: how many failovers a request may spend, how
/// long to back off between them, and an optional end-to-end deadline.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum failovers per request; the next one completes the request
    /// with [`RejectReason::FailoverBudgetExhausted`].
    pub budget: u32,
    /// Base backoff in milliseconds; attempt `k` waits
    /// `backoff_ms · 2^(k-1)` plus a deterministic jitter below one base
    /// unit, so retries from different requests de-synchronise without any
    /// global randomness.
    pub backoff_ms: u64,
    /// End-to-end deadline in milliseconds from submission; `0` disables.
    /// A request past its deadline at re-route time completes with
    /// [`RejectReason::DeadlineExceeded`].
    pub deadline_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 3,
            backoff_ms: 1,
            deadline_ms: 0,
        }
    }
}

/// SplitMix64 — the standard 64-bit mix, used for deterministic backoff
/// jitter keyed on (request id, attempt).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// Backoff before failover attempt `attempt` (1-based) of request
    /// `id`. Deterministic: the same (id, attempt) always waits the same
    /// jittered exponential delay.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let shift = u64::from(attempt.saturating_sub(1)).min(6);
        let base = self.backoff_ms.saturating_mul(1u64 << shift);
        let jitter = splitmix64(id ^ (u64::from(attempt) << 32)) % self.backoff_ms.max(1);
        Duration::from_millis(base.saturating_add(jitter))
    }
}

/// Health state of one replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Serving; the router prefers healthy replicas.
    Healthy,
    /// Serving, but its last completion was an error; routed to only when
    /// no healthy replica has capacity. A clean streak promotes it back.
    Suspect,
    /// Out of rotation after a crash, hang, or breaker trip; in-flight
    /// work has been failed over. Rebuild begins on the next tick.
    Quarantined,
    /// Verifying its weights against the golden copy, a tile budget per
    /// tick; rejoins as `Healthy` once the sweep covers the table.
    Rebuilding,
}

/// Per-replica health tracker: the state machine plus the consecutive-error
/// circuit breaker. Flap suppression is structural — the consecutive
/// counter resets on every clean completion, so alternating error/clean
/// sequences never accumulate toward the quarantine threshold.
#[derive(Clone, Copy, Debug)]
pub struct HealthTracker {
    state: ReplicaHealth,
    consecutive_errs: u32,
    clean_streak: u32,
    /// Consecutive errors that trip quarantine.
    quarantine_errs: u32,
    /// Clean completions that promote `Suspect` back to `Healthy`.
    promote_streak: u32,
}

impl HealthTracker {
    /// New tracker, `Healthy`, tripping after `quarantine_errs`
    /// consecutive errors (clamped to at least 1).
    pub fn new(quarantine_errs: u32) -> HealthTracker {
        HealthTracker {
            state: ReplicaHealth::Healthy,
            consecutive_errs: 0,
            clean_streak: 0,
            quarantine_errs: quarantine_errs.max(1),
            promote_streak: 2,
        }
    }

    /// Current health state.
    pub fn state(&self) -> ReplicaHealth {
        self.state
    }

    /// Is the replica in rotation (routable)?
    pub fn serving(&self) -> bool {
        matches!(self.state, ReplicaHealth::Healthy | ReplicaHealth::Suspect)
    }

    /// Record an errored completion. Returns `true` when the breaker trips
    /// (the replica must be quarantined). No-op off rotation.
    pub fn record_error(&mut self) -> bool {
        if !self.serving() {
            return false;
        }
        self.clean_streak = 0;
        self.consecutive_errs += 1;
        if self.consecutive_errs >= self.quarantine_errs {
            self.state = ReplicaHealth::Quarantined;
            true
        } else {
            self.state = ReplicaHealth::Suspect;
            false
        }
    }

    /// Record a clean completion: resets the breaker (flap suppression)
    /// and promotes a `Suspect` replica after a clean streak.
    pub fn record_clean(&mut self) {
        if !self.serving() {
            return;
        }
        self.consecutive_errs = 0;
        self.clean_streak += 1;
        if self.state == ReplicaHealth::Suspect && self.clean_streak >= self.promote_streak {
            self.state = ReplicaHealth::Healthy;
        }
    }

    /// Quarantine unconditionally (crash or watchdog abort — no vote).
    pub fn force_quarantine(&mut self) {
        self.state = ReplicaHealth::Quarantined;
        self.consecutive_errs = 0;
        self.clean_streak = 0;
    }

    /// Quarantined → Rebuilding.
    pub fn begin_rebuild(&mut self) {
        self.state = ReplicaHealth::Rebuilding;
    }

    /// Rebuilding → Healthy with a clean slate.
    pub fn rejoin(&mut self) {
        self.state = ReplicaHealth::Healthy;
        self.consecutive_errs = 0;
        self.clean_streak = 0;
    }
}

/// Replica-set configuration (knobs `FT2_REPLICAS`,
/// `FT2_REPLICA_RETRY_BUDGET`, `FT2_REPLICA_BACKOFF_MS`, and
/// `FT2_REPLICA_QUARANTINE_ERRS` feed the obvious fields).
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Number of replicas.
    pub replicas: usize,
    /// Per-request cross-replica retry policy.
    pub retry: RetryPolicy,
    /// Consecutive errored completions that trip a replica's breaker.
    pub quarantine_errs: u32,
    /// Per-replica scheduler configuration.
    pub inner: ServeConfig,
    /// Stale-heartbeat timeout for the hang watchdog; [`Duration::ZERO`]
    /// disables it (hang injection then degrades to an immediate abort, so
    /// it stays bounded).
    pub heartbeat: Duration,
    /// Weight tiles verified per rebuild tick (clamped to at least 1).
    pub rebuild_budget: usize,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            replicas: 2,
            retry: RetryPolicy::default(),
            quarantine_errs: 3,
            inner: ServeConfig::default(),
            heartbeat: Duration::from_millis(20),
            rebuild_budget: 64,
        }
    }
}

/// Aggregate counters across the replica set's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaSetStats {
    /// Request re-routes (each carries its accepted prefix to a survivor).
    pub failovers: u64,
    /// Accepted tokens carried across failovers (never lost).
    pub handoff_tokens: u64,
    /// Replica crashes caught (panic mid-step).
    pub crashes: u64,
    /// Replica hangs aborted by the heartbeat watchdog.
    pub hangs: u64,
    /// Breaker trips plus forced quarantines.
    pub quarantines: u64,
    /// Completed rebuild-and-rejoin cycles.
    pub rebuilds: u64,
    /// Weight tiles verified by rebuild sweeps.
    pub tiles_checked: u64,
    /// Weight tiles restored from the golden copy.
    pub tiles_repaired: u64,
    /// Evictions attributed to a storming replica and retried elsewhere.
    pub storm_evictions: u64,
    /// Requests completed with a typed rejection (budget or deadline).
    pub rejections: u64,
}

/// A completion annotated with its failover history.
#[derive(Clone, Debug)]
pub struct ReplicaCompletion {
    /// The scheduler-level completion.
    pub inner: Completion,
    /// Failovers the request survived (0 = served by one replica).
    pub failovers: u32,
    /// Replica that finished (or rejected) the request.
    pub replica: usize,
}

/// Router-side record of a routed request — everything needed to re-route
/// it after an eviction (a [`Completion`] carries no prompt) and to enforce
/// the retry budget and deadline.
struct RouteMeta {
    prompt: Vec<u32>,
    gen_tokens: usize,
    failovers: u32,
    submitted_at: Instant,
    /// The router injected a storm tap (degenerate-replica drill): its
    /// eviction is the replica's fault and is retried tap-less elsewhere.
    storm_injected: bool,
}

/// A re-route waiting out its backoff.
struct PendingRoute {
    req: Request,
    accepted: Vec<u32>,
    not_before: Instant,
}

/// One replica: an independent model instance and scheduler, plus health.
struct Replica {
    model: Arc<Model>,
    sched: Option<Scheduler>,
    health: HealthTracker,
    steps: u64,
    rebuild_cursor: usize,
}

/// N model replicas behind a health-aware failover router. See the module
/// docs for the full contract.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
    golden: Arc<Model>,
    checksums: WeightChecksums,
    config: ReplicaConfig,
    monitor: HeartbeatMonitor,
    faults: Vec<ReplicaFaultSpec>,
    meta: BTreeMap<u64, RouteMeta>,
    pending: VecDeque<PendingRoute>,
    done: Vec<ReplicaCompletion>,
    stats: ReplicaSetStats,
    /// Optional observation stream: each replica's scheduler gets the sink
    /// tagged with its index, and rebuilt schedulers are re-attached.
    sink: Option<EventSink>,
}

impl ReplicaSet {
    /// Build a replica set by stamping `config.replicas` bit-identical
    /// copies of `prototype` (plus one golden copy the rebuild sweep
    /// repairs from). At least one replica is always created.
    pub fn new(prototype: &Model, config: ReplicaConfig) -> ReplicaSet {
        let n = config.replicas.max(1);
        let golden = Arc::new(prototype.clone());
        let checksums = WeightChecksums::build(golden.config(), golden.weights());
        let monitor = HeartbeatMonitor::spawn(n, config.heartbeat);
        let replicas = (0..n)
            .map(|_| {
                let model = Arc::new(prototype.clone());
                let sched = Scheduler::new(Arc::clone(&model), config.inner.clone());
                Replica {
                    model,
                    sched: Some(sched),
                    health: HealthTracker::new(config.quarantine_errs),
                    steps: 0,
                    rebuild_cursor: 0,
                }
            })
            .collect();
        ReplicaSet {
            replicas,
            golden,
            checksums,
            config,
            monitor,
            faults: Vec::new(),
            meta: BTreeMap::new(),
            pending: VecDeque::new(),
            done: Vec::new(),
            stats: ReplicaSetStats::default(),
            sink: None,
        }
    }

    /// Mirror every replica's ladder decisions onto `sink`, tagged with
    /// the replica index. Schedulers stamped later (rebuild rejoin) are
    /// attached automatically. Observation only — serving behaviour and
    /// token identity are unchanged.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        for (r, rep) in self.replicas.iter_mut().enumerate() {
            if let Some(sched) = rep.sched.as_mut() {
                sched.set_event_sink(sink.for_replica(r));
            }
        }
        self.sink = Some(sink);
    }

    /// Decode steps replica `r` has taken (fault specs are keyed on this
    /// replica-local counter; live injection reads it to strike "now").
    pub fn replica_steps(&self, r: usize) -> u64 {
        self.replicas[r].steps
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Health state of replica `r`.
    pub fn health(&self, r: usize) -> ReplicaHealth {
        self.replicas[r].health.state()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ReplicaSetStats {
        &self.stats
    }

    /// Is the hang watchdog armed? `false` when a zero heartbeat timeout
    /// disabled it.
    pub fn watchdog_armed(&self) -> bool {
        self.monitor.armed()
    }

    /// Schedule a replica-level fault (test / bench injection).
    pub fn inject(&mut self, fault: ReplicaFaultSpec) {
        self.faults.push(fault);
    }

    /// Mutate replica `r`'s live weights — only while it is out of
    /// rotation (quarantined or rebuilding), when no scheduler holds its
    /// model. Returns `None` (untouched) otherwise. Fault drills corrupt
    /// tiles through this before the rebuild sweep runs.
    pub fn with_replica_weights<T>(
        &mut self,
        r: usize,
        f: impl FnOnce(&mut ModelWeights) -> T,
    ) -> Option<T> {
        let rep = &mut self.replicas[r];
        if rep.sched.is_some() {
            return None;
        }
        Arc::get_mut(&mut rep.model).map(|m| f(m.weights_mut()))
    }

    /// Force replica `r` out of rotation, failing over its work (tests and
    /// operational drain use this; faults arrive here via injection).
    pub fn quarantine(&mut self, r: usize) {
        if !self.replicas[r].health.serving() {
            return;
        }
        self.replicas[r].health.force_quarantine();
        self.stats.quarantines += 1;
        self.fail_over(r);
    }

    /// Route a fresh request to the healthiest, least-loaded replica.
    /// Fails with [`SubmitError::QueueFull`] when no serving replica has
    /// queue capacity. Request ids must be unique across in-flight work.
    pub fn try_submit(&mut self, req: Request) -> Result<(), SubmitError> {
        let Some(target) = self.pick_replica() else {
            return Err(SubmitError::QueueFull);
        };
        self.meta.insert(
            req.id,
            RouteMeta {
                prompt: req.prompt.clone(),
                gen_tokens: req.gen_tokens,
                failovers: 0,
                submitted_at: Instant::now(),
                storm_injected: false,
            },
        );
        let id = req.id;
        match self.route_to(target, req, Vec::new()) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.meta.remove(&id);
                Err(e)
            }
        }
    }

    /// Drain finished requests accumulated since the last call.
    pub fn drain_completions(&mut self) -> Vec<ReplicaCompletion> {
        std::mem::take(&mut self.done)
    }

    /// True when no routed, pending, or rebuilding work remains.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.meta.is_empty()
            && self
                .replicas
                .iter()
                .all(|rep| rep.health.serving() && rep.sched.as_ref().is_none_or(Scheduler::is_idle))
    }

    /// One router tick: flush due re-routes, advance every serving replica
    /// one scheduler step (catching crashes and hangs), sweep rebuilding
    /// replicas, and run the breaker over new completions. Returns `false`
    /// when the set is idle.
    pub fn step(&mut self, pool: &WorkStealingPool) -> bool {
        if self.is_idle() {
            return false;
        }
        self.flush_pending();
        for r in 0..self.replicas.len() {
            match self.replicas[r].health.state() {
                ReplicaHealth::Quarantined => {
                    self.replicas[r].health.begin_rebuild();
                    self.replicas[r].rebuild_cursor = 0;
                }
                ReplicaHealth::Rebuilding => self.rebuild_tick(r),
                ReplicaHealth::Healthy | ReplicaHealth::Suspect => self.step_replica(r, pool),
            }
        }
        // Only backoff timers left: yield briefly instead of hot-spinning.
        if self.replicas.iter().all(|rep| {
            !matches!(rep.health.state(), ReplicaHealth::Rebuilding)
                && rep.sched.as_ref().is_none_or(Scheduler::is_idle)
        }) && !self.pending.is_empty()
        {
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Run until idle (every request completed or rejected, every replica
    /// rebuilt and rejoined), returning all completions in finish order.
    pub fn run(&mut self, pool: &WorkStealingPool) -> Vec<ReplicaCompletion> {
        while self.step(pool) {}
        self.drain_completions()
    }

    /// Serving replica with the most free queue+batch capacity, healthy
    /// before suspect.
    fn pick_replica(&self) -> Option<usize> {
        let load = |rep: &Replica| {
            let s = rep.sched.as_ref().expect("serving replica has a scheduler");
            s.queued() + s.active()
        };
        let best = |state: ReplicaHealth| {
            self.replicas
                .iter()
                .enumerate()
                .filter(|(_, rep)| rep.health.state() == state && rep.sched.is_some())
                .min_by_key(|(_, rep)| load(rep))
                .map(|(r, _)| r)
        };
        best(ReplicaHealth::Healthy).or_else(|| best(ReplicaHealth::Suspect))
    }

    /// Is replica `r` currently under an activation-storm fault?
    fn storm_due(&self, r: usize) -> bool {
        let step = self.replicas[r].steps;
        self.faults
            .iter()
            .any(|f| f.kind == ReplicaFaultKind::ActStorm && f.due_at(r, step))
    }

    /// Admit `req` (with its accepted prefix) on replica `target`,
    /// injecting a storm tap when the target is under an ActStorm fault
    /// and the request is tap-less.
    fn route_to(
        &mut self,
        target: usize,
        mut req: Request,
        accepted: Vec<u32>,
    ) -> Result<(), SubmitError> {
        if req.tap.is_none() && self.storm_due(target) {
            let step = self.replicas[target].steps;
            for f in &mut self.faults {
                if f.kind == ReplicaFaultKind::ActStorm && f.strike_due(target, step) {
                    break;
                }
            }
            // Strike from step 1 on: the prefill token (step 0) stays
            // clean, so the accepted prefix carried off this replica is
            // never poisoned.
            req.tap = Some(Box::new(StormTap::persistent(1)));
            if let Some(m) = self.meta.get_mut(&req.id) {
                m.storm_injected = true;
            }
        }
        let sched = self.replicas[target]
            .sched
            .as_mut()
            .expect("routing to a replica without a scheduler");
        if accepted.is_empty() {
            sched.try_submit(req)
        } else {
            sched.try_resume(req, accepted)
        }
    }

    /// Complete a request at the router: emit its completion and drop its
    /// routing record.
    fn finish(&mut self, r: usize, c: Completion) {
        let failovers = self.meta.remove(&c.id).map_or(0, |m| m.failovers);
        self.done.push(ReplicaCompletion {
            inner: c,
            failovers,
            replica: r,
        });
    }

    /// Complete a request with a typed rejection, keeping its accepted
    /// prefix in the completion.
    fn reject(&mut self, r: usize, id: u64, tokens: Vec<u32>, reason: RejectReason) {
        self.stats.rejections += 1;
        self.finish(
            r,
            Completion {
                id,
                outcome: Outcome::Rejected(reason),
                tokens,
                rollbacks: 0,
                storms: 0,
                kv_repairs: 0,
                repair_retries: 0,
            },
        );
    }

    /// Queue a failover re-route for `req` with its accepted prefix,
    /// charging the retry budget and deadline. `from` is the replica the
    /// request is leaving (used only to label a rejection).
    fn reroute(&mut self, from: usize, req: Request, accepted: Vec<u32>) {
        let Some(meta) = self.meta.get_mut(&req.id) else {
            // Unknown id (never routed by us): drop with a typed outcome
            // rather than silently.
            self.reject(from, req.id, accepted, RejectReason::FailoverBudgetExhausted {
                failovers: 0,
            });
            return;
        };
        meta.failovers += 1;
        let failovers = meta.failovers;
        let elapsed = meta.submitted_at.elapsed();
        let policy = self.config.retry;
        if failovers > policy.budget {
            self.reject(
                from,
                req.id,
                accepted,
                RejectReason::FailoverBudgetExhausted { failovers },
            );
            return;
        }
        if policy.deadline_ms > 0 && elapsed > Duration::from_millis(policy.deadline_ms) {
            self.reject(from, req.id, accepted, RejectReason::DeadlineExceeded);
            return;
        }
        self.stats.failovers += 1;
        self.stats.handoff_tokens += accepted.len() as u64;
        let not_before = Instant::now() + policy.backoff(req.id, failovers);
        self.pending.push_back(PendingRoute {
            req,
            accepted,
            not_before,
        });
    }

    /// Admit every pending re-route whose backoff has elapsed, if a
    /// serving replica has capacity; the rest stay queued.
    fn flush_pending(&mut self) {
        let now = Instant::now();
        let mut still_waiting = VecDeque::new();
        while let Some(p) = self.pending.pop_front() {
            if p.not_before > now {
                still_waiting.push_back(p);
                continue;
            }
            let Some(target) = self.pick_replica() else {
                still_waiting.push_back(p);
                continue;
            };
            let PendingRoute { req, accepted, .. } = p;
            let id = req.id;
            if let Err(e) = self.route_to(target, req, accepted) {
                debug_assert_eq!(e, SubmitError::QueueFull, "re-route re-validation failed");
                // Rebuild the route from meta (the request was consumed)
                // and retry next tick without charging the budget.
                if let Some(m) = self.meta.get(&id) {
                    still_waiting.push_back(PendingRoute {
                        req: Request {
                            id,
                            prompt: m.prompt.clone(),
                            gen_tokens: m.gen_tokens,
                            tap: None,
                        },
                        accepted: Vec::new(),
                        not_before: now + Duration::from_millis(1),
                    });
                }
            }
        }
        self.pending = still_waiting;
    }

    /// Tear down replica `r`'s scheduler and re-route everything it held.
    /// Completions it had already produced survive verbatim; in-flight and
    /// queued requests carry their accepted prefixes to the backoff queue.
    /// Router-injected storm taps are stripped (the storm was the
    /// replica's fault, not the request's).
    fn fail_over(&mut self, r: usize) {
        let Some(sched) = self.replicas[r].sched.take() else {
            return;
        };
        let (inflight, done) = sched.into_failover();
        for c in done {
            self.settle(r, c);
        }
        for (mut req, accepted) in inflight {
            if self
                .meta
                .get_mut(&req.id)
                .is_some_and(|m| std::mem::take(&mut m.storm_injected))
            {
                req.tap = None;
            }
            self.reroute(r, req, accepted);
        }
    }

    /// Route one drained completion: clean completions and rejections are
    /// final; an eviction caused by a router-injected storm tap is the
    /// replica's fault and is retried tap-less on a survivor with the
    /// accepted prefix intact.
    fn settle(&mut self, r: usize, c: Completion) {
        match c.outcome {
            Outcome::Evicted(_)
                if self.meta.get(&c.id).is_some_and(|m| m.storm_injected) =>
            {
                self.stats.storm_evictions += 1;
                let m = self.meta.get_mut(&c.id).expect("checked above");
                m.storm_injected = false;
                let req = Request {
                    id: c.id,
                    prompt: m.prompt.clone(),
                    gen_tokens: m.gen_tokens,
                    tap: None,
                };
                self.reroute(r, req, c.tokens);
            }
            _ => self.finish(r, c),
        }
    }

    /// Advance replica `r` one scheduler step under the heartbeat and
    /// panic containment, then run the breaker over its completions.
    fn step_replica(&mut self, r: usize, pool: &WorkStealingPool) {
        let idle = self.replicas[r].sched.as_ref().is_none_or(Scheduler::is_idle);
        if idle {
            return;
        }
        let step = self.replicas[r].steps;
        self.replicas[r].steps += 1;
        let strike = self
            .faults
            .iter_mut()
            .filter(|f| f.kind != ReplicaFaultKind::ActStorm)
            .find_map(|f| f.strike_due(r, step).then_some(f.kind));
        let hb = self.monitor.state();
        let armed = self.monitor.armed();
        let sched = self.replicas[r].sched.as_mut().expect("checked non-idle");
        hb.begin(r);
        let result = catch_quiet(|| match strike {
            Some(ReplicaFaultKind::Crash) => panic!("injected replica crash"),
            Some(ReplicaFaultKind::Hang) => {
                // Cooperative hang: stop beating and wait for the monitor
                // to cancel the slot, exactly like a stuck kernel stream.
                // With the watchdog disabled, abort immediately so the
                // injection stays bounded.
                let t0 = Instant::now();
                while armed && !hb.is_cancelled(r) && t0.elapsed() < Duration::from_secs(2) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                std::panic::panic_any(ReplicaHangAbort { replica: r });
            }
            _ => {
                sched.step(pool);
            }
        });
        hb.end(r);
        hb.reset(r);
        match result {
            Ok(()) => {
                let completions = self.replicas[r]
                    .sched
                    .as_mut()
                    .expect("scheduler survives a clean step")
                    .drain_completions();
                let mut tripped = false;
                for c in completions {
                    match c.outcome {
                        Outcome::Completed => self.replicas[r].health.record_clean(),
                        Outcome::Evicted(_) => tripped |= self.replicas[r].health.record_error(),
                        Outcome::Rejected(_) => {}
                    }
                    self.settle(r, c);
                }
                if tripped {
                    self.stats.quarantines += 1;
                    self.fail_over(r);
                }
            }
            Err(caught) => {
                if caught.payload.downcast_ref::<ReplicaHangAbort>().is_some() {
                    self.stats.hangs += 1;
                } else {
                    self.stats.crashes += 1;
                }
                self.replicas[r].health.force_quarantine();
                self.stats.quarantines += 1;
                self.fail_over(r);
            }
        }
    }

    /// One rebuild tick: verify (and repair from golden) a budget of
    /// weight tiles; once the cursor covers the table, stamp a fresh
    /// scheduler on the verified weights and rejoin.
    fn rebuild_tick(&mut self, r: usize) {
        let budget = self.config.rebuild_budget.max(1);
        let rep = &mut self.replicas[r];
        debug_assert!(rep.sched.is_none(), "rebuilding replica still scheduled");
        let live = Arc::get_mut(&mut rep.model)
            .expect("rebuilding replica's model must be uniquely held");
        let (checked, repaired) = self.checksums.sweep(
            rep.rebuild_cursor,
            budget,
            live.weights_mut(),
            self.golden.weights(),
        );
        rep.rebuild_cursor += checked;
        self.stats.tiles_checked += checked as u64;
        self.stats.tiles_repaired += repaired as u64;
        if rep.rebuild_cursor >= self.checksums.num_tiles() {
            let mut sched = Scheduler::new(Arc::clone(&rep.model), self.config.inner.clone());
            if let Some(sink) = &self.sink {
                sched.set_event_sink(sink.for_replica(r));
            }
            rep.sched = Some(sched);
            rep.health.rejoin();
            rep.rebuild_cursor = 0;
            self.stats.rebuilds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_on_consecutive_errors_only() {
        let mut h = HealthTracker::new(3);
        assert_eq!(h.state(), ReplicaHealth::Healthy);
        assert!(!h.record_error());
        assert_eq!(h.state(), ReplicaHealth::Suspect);
        assert!(!h.record_error());
        assert!(h.record_error(), "third consecutive error trips");
        assert_eq!(h.state(), ReplicaHealth::Quarantined);
    }

    #[test]
    fn flapping_replica_is_never_quarantined() {
        let mut h = HealthTracker::new(2);
        for _ in 0..50 {
            assert!(!h.record_error(), "alternating errors must not trip");
            h.record_clean();
        }
        assert_ne!(h.state(), ReplicaHealth::Quarantined);
    }

    #[test]
    fn clean_streak_promotes_suspect_back_to_healthy() {
        let mut h = HealthTracker::new(5);
        h.record_error();
        assert_eq!(h.state(), ReplicaHealth::Suspect);
        h.record_clean();
        assert_eq!(h.state(), ReplicaHealth::Suspect, "one clean is not enough");
        h.record_clean();
        assert_eq!(h.state(), ReplicaHealth::Healthy);
    }

    #[test]
    fn rebuild_ladder_walks_the_full_cycle() {
        let mut h = HealthTracker::new(1);
        h.force_quarantine();
        assert_eq!(h.state(), ReplicaHealth::Quarantined);
        h.begin_rebuild();
        assert_eq!(h.state(), ReplicaHealth::Rebuilding);
        assert!(!h.serving());
        assert!(!h.record_error(), "breaker is idle off rotation");
        h.rejoin();
        assert_eq!(h.state(), ReplicaHealth::Healthy);
    }

    #[test]
    fn backoff_is_deterministic_and_grows_exponentially() {
        let p = RetryPolicy {
            budget: 8,
            backoff_ms: 4,
            deadline_ms: 0,
        };
        assert_eq!(p.backoff(7, 1), p.backoff(7, 1));
        assert_ne!(
            p.backoff(7, 1),
            p.backoff(8, 1),
            "jitter must separate requests"
        );
        for attempt in 1..6u32 {
            let base = 4u64 << (attempt - 1);
            let d = p.backoff(42, attempt).as_millis() as u64;
            assert!((base..base + 4).contains(&d), "attempt {attempt}: {d}ms");
        }
    }
}
