//! The continuous-batching scheduler with a per-request recovery ladder.
//!
//! [`Scheduler`] admits requests from a bounded queue into a batch of at
//! most `max_batch` lanes and advances every lane one token per
//! [`Scheduler::step`] via the batched decode step. Requests join and
//! leave the batch at step granularity — a finishing request's lane is
//! refilled from the queue on the next step, so the batch never drains to
//! restart (continuous batching rather than static batching).
//!
//! Fault tolerance is *per request*. Each lane carries its own tap (the
//! detector/injector), its own [`Ladder`] — the state machine the engine
//! climbs, whose unit here is one lane's decode step — and its own KV
//! pages, so the engine's recovery ladder replays per lane:
//!
//! 1. **Rollback** — a lane whose step verdict is
//!    [`AnomalyVerdict::Storm`] truncates its own [`KvSeq`] back one
//!    position and re-decodes the same token on the next scheduler step,
//!    while every other lane keeps advancing. A transient fault re-strikes
//!    until it fades (the tap's `on_rollback` escalation), exactly as in
//!    the single-sequence engine.
//! 2. **Repair** — once the retry budget is exhausted, a policy with
//!    `repair` set takes one repair rung on a lane that has a [`KvGuard`]
//!    (the engine's rule: the rung exists only where something could
//!    repair): the lane's seals are swept, the KV positions from the first
//!    broken seal on are recomputed from the lane's known tokens in one
//!    prefill pass over the intact prefix (bit-identical to the rows first
//!    written, whatever shape they were written in), and one extra
//!    re-decode is granted.
//! 3. **Evict** — a lane still storming after rollback and repair is
//!    evicted with [`EvictReason::RetriesExhausted`]: its pages return to
//!    the arena and its [`Completion`] reports the typed outcome. Eviction
//!    never stalls batchmates — the freed lane is refilled from the queue.
//!
//! A disabled [`RecoveryPolicy`] accepts storming tokens as-is, like the
//! engine, and prefill (step 0) is never rolled back.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use crate::arena::{KvArena, KvGuard, KvSeq};
use crate::engine::{batch_step, prefill, BatchLane, BatchScratch};
use crate::event::{EventSink, ServeEvent};
use ft2_model::hooks::{AnomalyVerdict, LayerTap, StepReport};
use ft2_model::{Ladder, Model, RecoveryPolicy, Rung};
use ft2_parallel::WorkStealingPool;
use ft2_tensor::argmax;

/// Scheduler configuration (knobs `FT2_SERVE_MAX_BATCH` and
/// `FT2_SERVE_QUEUE_DEPTH` feed the first two fields).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum concurrent lanes per decode step.
    pub max_batch: usize,
    /// Bounded admission-queue depth; a full queue rejects submissions
    /// with [`SubmitError::QueueFull`] (backpressure).
    pub queue_depth: usize,
    /// Per-request recovery ladder policy.
    pub recovery: RecoveryPolicy,
    /// Maintain per-position KV seals and sweep them on the repair rung.
    pub kv_guard: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            queue_depth: 64,
            recovery: RecoveryPolicy::retries(2).with_repair(),
            kv_guard: true,
        }
    }
}

/// One generation request.
pub struct Request {
    /// Caller-chosen id, echoed in the [`Completion`].
    pub id: u64,
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to generate (including the prefill token).
    pub gen_tokens: usize,
    /// Per-request tap: fault injector, detector, or both. `None` serves
    /// the request tap-less.
    pub tap: Option<Box<dyn LayerTap + Send>>,
}

/// Why a submission was rejected at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and resubmit.
    QueueFull,
    /// Empty prompts cannot be prefilled.
    EmptyPrompt,
    /// `prompt.len() + gen_tokens` exceeds the model's `max_seq`.
    TooLong {
        /// Requested total sequence length.
        requested: usize,
        /// The model's maximum.
        max_seq: usize,
    },
    /// The server has begun a graceful drain and admits nothing new.
    ShuttingDown,
}

/// Why a request was evicted from the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictReason {
    /// The per-request recovery ladder ran out: the step still stormed
    /// after `redecodes` rollbacks (and the repair rung, when enabled).
    RetriesExhausted {
        /// The generation step that could not be decoded cleanly.
        step: usize,
        /// Rollbacks spent on that step.
        redecodes: u32,
    },
}

/// Why a request was rejected without (fully) running — carried by
/// [`Outcome::Rejected`]. Unlike eviction, rejection is a router or
/// runtime decision, not a recovery-ladder verdict, and it is always
/// typed: queued work is never silently dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The server is shutting down; queued requests are drained with this
    /// typed outcome instead of being dropped on the floor.
    Shutdown,
    /// The request's per-request deadline elapsed before any replica
    /// could finish it.
    DeadlineExceeded,
    /// The cross-replica retry budget was exhausted by repeated
    /// failovers.
    FailoverBudgetExhausted {
        /// Failovers spent on the request.
        failovers: u32,
    },
}

/// Terminal state of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// All requested tokens were generated and accepted.
    Completed,
    /// The request was removed from the batch before completing.
    Evicted(EvictReason),
    /// The request was refused by the runtime (shutdown, deadline, or an
    /// exhausted failover budget); any accepted-token prefix is returned
    /// in the completion.
    Rejected(RejectReason),
}

impl Outcome {
    /// Short label for the event stream (`"Completed"` / `"Evicted"` /
    /// `"Rejected"`).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed => "Completed",
            Outcome::Evicted(_) => "Evicted",
            Outcome::Rejected(_) => "Rejected",
        }
    }
}

/// Everything the caller gets back for one request.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Accepted tokens (all `gen_tokens` on completion, a prefix on
    /// eviction).
    pub tokens: Vec<u32>,
    /// Rollbacks taken across all steps.
    pub rollbacks: u32,
    /// Steps whose merged verdict was a storm.
    pub storms: u32,
    /// KV positions rebuilt by the repair rung.
    pub kv_repairs: usize,
    /// Repair rungs taken.
    pub repair_retries: u32,
}

/// A request occupying a batch lane.
struct ActiveRequest {
    id: u64,
    prompt: Vec<u32>,
    gen_tokens: usize,
    tap: Option<Box<dyn LayerTap + Send>>,
    seq: KvSeq,
    guard: Option<KvGuard>,
    tokens: Vec<u32>,
    admitted_at: Instant,
    /// Where the lane's current decode step stands on the recovery ladder.
    ladder: Ladder,
    rollbacks: u32,
    storms: u32,
    kv_repairs: usize,
    repair_retries: u32,
}

impl ActiveRequest {
    /// Token stored at sequence position `j` (prompt, then accepted
    /// generated tokens).
    fn token_at(&self, j: usize) -> u32 {
        if j < self.prompt.len() {
            self.prompt[j]
        } else {
            self.tokens[j - self.prompt.len()]
        }
    }

    fn into_completion(self, outcome: Outcome) -> Completion {
        Completion {
            id: self.id,
            outcome,
            tokens: self.tokens,
            rollbacks: self.rollbacks,
            storms: self.storms,
            kv_repairs: self.kv_repairs,
            repair_retries: self.repair_retries,
        }
    }
}

/// A queue entry: a fresh submission carries an empty `resume` prefix; a
/// request handed off from a failed replica carries the tokens it had
/// already been granted, which admission replays instead of re-deriving.
struct Queued {
    req: Request,
    resume: Vec<u32>,
}

/// Continuous-batching scheduler over one model and one KV arena.
///
/// The scheduler *owns* its model handle (`Arc<Model>`) rather than
/// borrowing it, so a replica can be torn down, its weights rebuilt in
/// place, and a fresh scheduler started — without any lifetime tying the
/// scheduler to an enclosing scope.
pub struct Scheduler {
    model: Arc<Model>,
    config: ServeConfig,
    arena: KvArena,
    queue: VecDeque<Queued>,
    active: Vec<ActiveRequest>,
    completions: Vec<Completion>,
    scratch: BatchScratch,
    /// Optional observation-only event stream (never blocks the ladder).
    sink: Option<EventSink>,
}

impl Scheduler {
    /// New scheduler serving `model` under `config`.
    pub fn new(model: Arc<Model>, config: ServeConfig) -> Scheduler {
        let c = model.config();
        let arena = KvArena::new(c.blocks, c.hidden);
        Scheduler {
            model,
            config,
            arena,
            queue: VecDeque::new(),
            active: Vec::new(),
            completions: Vec::new(),
            scratch: BatchScratch::new(),
            sink: None,
        }
    }

    /// Mirror every ladder decision onto `sink` as [`ServeEvent`]s.
    /// Observation only: emission is non-blocking and fault-silent, so
    /// streamed tokens stay bit-identical to an un-instrumented scheduler.
    pub fn set_event_sink(&mut self, sink: EventSink) {
        self.sink = Some(sink);
    }

    /// Push a completion, emitting the matching terminal event.
    fn finish(&mut self, completion: Completion) {
        if let Some(sink) = &self.sink {
            sink.emit(ServeEvent::Completed {
                replica: sink.replica(),
                id: completion.id,
                outcome: completion.outcome.label(),
                tokens: completion.tokens.len(),
                rollbacks: completion.rollbacks,
                storms: completion.storms,
            });
        }
        self.completions.push(completion);
    }

    /// Requests waiting for a lane.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently occupying lanes.
    pub fn active(&self) -> usize {
        self.active.len()
    }

    /// True when no queued or active work remains.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// The KV arena (tests inspect page accounting; fault drills corrupt
    /// sealed rows through it).
    pub fn arena_mut(&mut self) -> &mut KvArena {
        &mut self.arena
    }

    /// The KV sequence of the active request with the given id, if it
    /// currently occupies a lane (fault drills use this to address a
    /// request's arena rows).
    pub fn lane_seq(&self, id: u64) -> Option<&KvSeq> {
        self.active.iter().find(|ar| ar.id == id).map(|ar| &ar.seq)
    }

    /// Admit a request into the bounded queue.
    pub fn try_submit(&mut self, req: Request) -> Result<(), SubmitError> {
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let requested = req.prompt.len() + req.gen_tokens;
        let max_seq = self.model.config().max_seq;
        if requested > max_seq {
            return Err(SubmitError::TooLong { requested, max_seq });
        }
        if self.queue.len() >= self.config.queue_depth {
            return Err(SubmitError::QueueFull);
        }
        self.queue.push_back(Queued {
            req,
            resume: Vec::new(),
        });
        Ok(())
    }

    /// Admit a handed-off request: `accepted` tokens it was already
    /// granted elsewhere are kept verbatim, and admission recomputes its KV
    /// from them, so the continuation is bit-identical to the request's
    /// solo generation. A request whose prefix already covers `gen_tokens`
    /// completes immediately.
    pub fn try_resume(&mut self, req: Request, accepted: Vec<u32>) -> Result<(), SubmitError> {
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        let requested = req.prompt.len() + req.gen_tokens;
        let max_seq = self.model.config().max_seq;
        if requested > max_seq {
            return Err(SubmitError::TooLong { requested, max_seq });
        }
        if self.queue.len() >= self.config.queue_depth {
            return Err(SubmitError::QueueFull);
        }
        if accepted.len() >= req.gen_tokens {
            self.finish(Completion {
                id: req.id,
                outcome: Outcome::Completed,
                tokens: accepted,
                rollbacks: 0,
                storms: 0,
                kv_repairs: 0,
                repair_retries: 0,
            });
            return Ok(());
        }
        self.queue.push_back(Queued {
            req,
            resume: accepted,
        });
        Ok(())
    }

    /// Reject every queued (not yet admitted) request with a typed
    /// [`Outcome::Rejected`] completion — accepted-token prefixes of
    /// resumed requests ride along in the completion rather than being
    /// dropped. Active lanes are untouched. Returns how many requests
    /// were rejected.
    pub fn drain_queue_rejected(&mut self, reason: RejectReason) -> usize {
        let drained: Vec<Queued> = self.queue.drain(..).collect();
        let n = drained.len();
        for q in drained {
            self.finish(Completion {
                id: q.req.id,
                outcome: Outcome::Rejected(reason),
                tokens: q.resume,
                rollbacks: 0,
                storms: 0,
                kv_repairs: 0,
                repair_retries: 0,
            });
        }
        n
    }

    /// Tear the scheduler down for cross-replica failover. Returns every
    /// in-flight and queued request together with its accepted-token
    /// prefix (the scheduler only appends a token *after* the decode step
    /// and recovery ladder accept it, so a panic mid-step can never lose
    /// or corrupt this prefix), plus any finished completions not yet
    /// drained. All KV state is discarded with the scheduler — a survivor
    /// re-prefills from the prefix via [`Scheduler::try_resume`].
    pub fn into_failover(mut self) -> (Vec<(Request, Vec<u32>)>, Vec<Completion>) {
        let mut inflight = Vec::with_capacity(self.active.len() + self.queue.len());
        for ar in self.active.drain(..) {
            inflight.push((
                Request {
                    id: ar.id,
                    prompt: ar.prompt,
                    gen_tokens: ar.gen_tokens,
                    tap: ar.tap,
                },
                ar.tokens,
            ));
        }
        for q in self.queue.drain(..) {
            inflight.push((q.req, q.resume));
        }
        (inflight, std::mem::take(&mut self.completions))
    }

    /// Drain completed requests accumulated since the last call.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Prefill one queued request into a lane: one pass of the layer walk
    /// over the prompt, straight into the lane's arena pages, with the
    /// request's tap riding along (so it sees the exact prefill the engine
    /// would fire), then the first token. Prefill is never rolled back, in
    /// the engine or here — a storm is counted and the token accepted.
    ///
    /// A resumed request (non-empty handoff prefix) instead prefills the
    /// prompt plus its accepted tokens tap-less: the rows equal the failed
    /// replica's accepted state bit for bit whatever mix of prefill and
    /// decode steps first produced them, so the continuation matches solo
    /// generation. The tap's own state (rollback escalation etc.) travelled
    /// with the request and is not re-fired for steps it already saw.
    fn admit(&mut self, q: Queued, pool: &WorkStealingPool) {
        let Queued { req, resume } = q;
        let admitted_at = Instant::now();
        let policy = self.config.recovery;
        let guard = self.config.kv_guard.then(KvGuard::new);
        let mut ar = ActiveRequest {
            id: req.id,
            prompt: req.prompt,
            gen_tokens: req.gen_tokens,
            tap: req.tap,
            seq: KvSeq::new(),
            // The repair rung exists only where something could repair.
            ladder: Ladder::new(
                policy.max_retries,
                policy.enabled() && policy.repair && guard.is_some(),
            ),
            guard,
            tokens: resume,
            admitted_at,
            rollbacks: 0,
            storms: 0,
            kv_repairs: 0,
            repair_retries: 0,
        };
        let resuming = !ar.tokens.is_empty();
        // Every accepted token but the last gets its KV row here; the last
        // is the next lane input, so its row is written by the coming batch
        // step, preserving the invariant
        // `seq.len() == prompt.len() + tokens.len() - 1`.
        let replay;
        let (known, tap): (&[u32], _) = if resuming {
            replay = [&ar.prompt[..], &ar.tokens[..ar.tokens.len() - 1]].concat();
            (&replay, None)
        } else {
            let tap = ar.tap.as_deref_mut().map(|tap| tap as &mut dyn LayerTap);
            (&ar.prompt, tap)
        };
        let (model, arena, scratch) = (&self.model, &mut self.arena, &mut self.scratch);
        prefill(model, arena, &mut ar.seq, known, 0, tap, pool, scratch);
        let report = match ar.tap.as_deref_mut() {
            Some(tap) if !resuming => tap.end_step(0),
            _ => StepReport::default(),
        };
        if report.verdict == AnomalyVerdict::Storm {
            ar.storms += 1;
        }
        if let Some(guard) = &mut ar.guard {
            for j in 0..ar.seq.len() {
                guard.seal(&self.arena, &ar.seq, j);
            }
        }
        if let Some(sink) = &self.sink {
            sink.emit(ServeEvent::Admitted {
                replica: sink.replica(),
                id: ar.id,
                resumed: ar.tokens.len(),
            });
        }
        if !resuming {
            let hidden = &self.scratch.walk.hidden;
            let last = hidden.slice_rows(hidden.rows() - 1, hidden.rows());
            let first = argmax(&self.model.logits(&last)) as u32;
            ar.tokens.push(first);
            if let Some(sink) = &self.sink {
                sink.emit(ServeEvent::Token {
                    replica: sink.replica(),
                    id: ar.id,
                    step: 0,
                    token: first,
                    report,
                    t_ns: admitted_at.elapsed().as_nanos() as u64,
                });
            }
        }
        if ar.tokens.len() >= ar.gen_tokens {
            ar.seq.release(&mut self.arena);
            let completion = ar.into_completion(Outcome::Completed);
            self.finish(completion);
        } else {
            self.active.push(ar);
        }
    }

    /// Rebuild this lane's KV positions `from..seq.len()` from its known
    /// tokens (prompt plus accepted tokens): one tap-less prefill pass over
    /// those positions, attending to the prefix below `from` (whose seals
    /// held) and overwriting the suspect rows in place. On a tap-less
    /// request the rebuilt rows are bit-identical to the ones first written
    /// — by a joint prefill, by single-token decode steps, or by any mix
    /// (`rebuild_restores_rows_bit_for_bit`). Returns positions rebuilt.
    fn rebuild_kv(
        model: &Model,
        arena: &mut KvArena,
        scratch: &mut BatchScratch,
        ar: &mut ActiveRequest,
        from: usize,
        pool: &WorkStealingPool,
    ) -> usize {
        let len = ar.seq.len();
        if from >= len {
            return 0;
        }
        let known: Vec<u32> = (from..len).map(|j| ar.token_at(j)).collect();
        prefill(model, arena, &mut ar.seq, &known, from, None, pool, scratch);
        if let Some(guard) = &mut ar.guard {
            for j in from..len {
                guard.reseal(arena, &ar.seq, j);
            }
        }
        len - from
    }

    /// Advance the batch one decode step: admit queued requests into free
    /// lanes, decode every lane, then run each lane's recovery ladder.
    /// Returns `false` when there was nothing to do.
    pub fn step(&mut self, pool: &WorkStealingPool) -> bool {
        while self.active.len() < self.config.max_batch {
            match self.queue.pop_front() {
                Some(q) => self.admit(q, pool),
                None => break,
            }
        }
        if self.active.is_empty() {
            return false;
        }

        // Build one lane per active request and decode the batch.
        let Scheduler {
            model,
            arena,
            active,
            scratch,
            ..
        } = self;
        let mut lanes: Vec<BatchLane<'_>> = active
            .iter_mut()
            .map(|ar| BatchLane {
                token: *ar.tokens.last().expect("active lane without a token"),
                pos: ar.prompt.len() + ar.tokens.len() - 1,
                step: ar.tokens.len(),
                seq: &mut ar.seq,
                tap: ar.tap.as_deref_mut(),
            })
            .collect();
        let next = batch_step(model, arena, &mut lanes, pool, scratch);
        drop(lanes);

        // Per-lane recovery ladder.
        let policy = self.config.recovery;
        let mut finished: Vec<(usize, Outcome)> = Vec::new();
        for (i, ar) in self.active.iter_mut().enumerate() {
            let step = ar.tokens.len();
            let pos = ar.prompt.len() + ar.tokens.len() - 1;
            let report = match ar.tap.as_deref_mut() {
                Some(tap) => tap.end_step(step),
                None => Default::default(),
            };
            if report.verdict == AnomalyVerdict::Storm {
                ar.storms += 1;
                let rung = ar.ladder.fail();
                if let Rung::Retry { attempt } | Rung::Repair { attempt } = rung {
                    // Roll the token back; the lane re-decodes it on the
                    // next scheduler step while its batchmates advance.
                    ar.seq.truncate(pos, &mut self.arena);
                    if let Some(guard) = &mut ar.guard {
                        guard.truncate(pos);
                    }
                    if let Some(tap) = ar.tap.as_deref_mut() {
                        tap.on_rollback(step, attempt);
                    }
                    ar.rollbacks += 1;
                    if let Some(sink) = &self.sink {
                        sink.emit(ServeEvent::Rollback {
                            replica: sink.replica(),
                            id: ar.id,
                            step,
                            attempt,
                            report,
                        });
                    }
                    if let Rung::Repair { .. } = rung {
                        // Sweep the lane's seals and recompute everything
                        // from the first broken one on.
                        let bad = ar
                            .guard
                            .as_ref()
                            .and_then(|g| g.verify(&self.arena, &ar.seq));
                        let rebuilt = bad.map_or(0, |bad| {
                            let (model, arena, scratch) =
                                (&self.model, &mut self.arena, &mut self.scratch);
                            Self::rebuild_kv(model, arena, scratch, ar, bad, pool)
                        });
                        ar.kv_repairs += rebuilt;
                        ar.repair_retries += 1;
                        if let Some(sink) = &self.sink {
                            sink.emit(ServeEvent::Repair {
                                replica: sink.replica(),
                                id: ar.id,
                                step,
                                positions: rebuilt,
                            });
                        }
                    }
                    continue;
                }
                if policy.enabled() {
                    // Giving up here means eviction.
                    let redecodes = ar.ladder.spent();
                    finished.push((
                        i,
                        Outcome::Evicted(EvictReason::RetriesExhausted { step, redecodes }),
                    ));
                    if let Some(sink) = &self.sink {
                        sink.emit(ServeEvent::Evicted {
                            replica: sink.replica(),
                            id: ar.id,
                            step,
                            redecodes,
                        });
                    }
                    continue;
                }
                // Disabled policy: fall through and accept the storming
                // token, as the engine does.
            }
            // Accept.
            ar.tokens.push(next[i]);
            let t_ns = ar.admitted_at.elapsed().as_nanos() as u64;
            ar.ladder.pass();
            if let Some(guard) = &mut ar.guard {
                guard.seal(&self.arena, &ar.seq, pos);
            }
            if let Some(sink) = &self.sink {
                sink.emit(ServeEvent::Token {
                    replica: sink.replica(),
                    id: ar.id,
                    step,
                    token: next[i],
                    report,
                    t_ns,
                });
            }
            if ar.tokens.len() >= ar.gen_tokens {
                finished.push((i, Outcome::Completed));
            }
        }

        // Remove finished lanes (largest index first so indices stay valid)
        // and hand their pages back to the arena.
        finished.sort_by_key(|f| std::cmp::Reverse(f.0));
        for (i, outcome) in finished {
            let mut ar = self.active.remove(i);
            ar.seq.release(&mut self.arena);
            let completion = ar.into_completion(outcome);
            self.finish(completion);
        }
        true
    }

    /// Run until every queued and active request has completed or been
    /// evicted, returning all completions in finish order.
    pub fn run(&mut self, pool: &WorkStealingPool) -> Vec<Completion> {
        while self.step(pool) {}
        self.drain_completions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft2_model::ModelConfig;

    /// Admission runs its prefill on the pool `step` is given: at 1, 2
    /// and 4 threads the admitted request's prompt rows equal the engine's
    /// `KvCache`, bit for bit, and its first token is the engine's.
    /// `scripts/verify.sh` runs this once more with `FT2_NO_SIMD=1`.
    #[test]
    fn admission_prefill_on_the_pool_equals_the_engine_cache() {
        use ft2_model::engine::KvCache;
        use ft2_model::TapList;
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let model = Arc::new(Model::new(config));
            let prompt: Vec<u32> = (0..37u32).map(|i| (i * 11 + 2) % 90).collect();
            let mut cache = KvCache::new(model.config());
            let hidden = model.forward_step(&prompt, 0, 0, &mut cache, &mut TapList::new());
            let last = hidden.slice_rows(prompt.len() - 1, prompt.len());
            let first = argmax(&model.logits(&last)) as u32;
            for threads in [1, 2, 4] {
                let pool = WorkStealingPool::new(threads);
                let mut sched = Scheduler::new(Arc::clone(&model), ServeConfig::default());
                let req = Request {
                    id: 0,
                    prompt: prompt.clone(),
                    gen_tokens: 4,
                    tap: None,
                };
                sched.try_submit(req).unwrap();
                assert!(sched.step(&pool));
                let ar = &sched.active[0];
                assert_eq!(ar.tokens[0], first, "first token, {threads} threads");
                for j in 0..prompt.len() {
                    let row = ar.seq.row_of(j);
                    for b in 0..cache.num_blocks() {
                        let (k, v) = (cache.block(b).k.row(j), cache.block(b).v.row(j));
                        let at = format!("row {j} block {b}, {threads} threads");
                        assert_eq!(sched.arena.k_row(b, row), k, "K {at}");
                        assert_eq!(sched.arena.v_row(b, row), v, "V {at}");
                    }
                }
            }
        }
    }

    /// Identity (iii) of the layer walk: on a tap-less request,
    /// `rebuild_kv` from a mid-sequence position restores rows
    /// bit-identical to the ones it replaces — rows first written by a
    /// joint prefill (the prompt) and by two-lane batched decode steps (the
    /// rest) come back from one prefill pass over the suffix. The
    /// batchmate's rows and every seal are untouched. `scripts/verify.sh`
    /// runs this once more with `FT2_NO_SIMD=1`.
    #[test]
    fn rebuild_restores_rows_bit_for_bit() {
        let pool = WorkStealingPool::new(2);
        for config in [ModelConfig::tiny_opt(), ModelConfig::tiny_llama()] {
            let blocks = config.blocks;
            let mut sched = Scheduler::new(Arc::new(Model::new(config)), ServeConfig::default());
            for (id, plen) in [(0u64, 20u32), (1, 9)] {
                let prompt = (0..plen).map(|i| (i * 5 + id as u32) % 90).collect();
                let req = Request {
                    id,
                    prompt,
                    gen_tokens: 30,
                    tap: None,
                };
                sched.try_submit(req).unwrap();
            }
            for _ in 0..15 {
                assert!(sched.step(&pool));
            }
            let rows_of = |sched: &Scheduler, lane: usize| -> Vec<Vec<f32>> {
                let seq = &sched.active[lane].seq;
                (0..seq.len())
                    .flat_map(|j| (0..blocks).map(move |b| (seq.row_of(j), b)))
                    .flat_map(|(row, b)| [sched.arena.k_row(b, row), sched.arena.v_row(b, row)])
                    .map(<[f32]>::to_vec)
                    .collect()
            };
            let (clean, mate) = (rows_of(&sched, 0), rows_of(&sched, 1));
            let len = sched.active[0].seq.len();
            assert_eq!(len, 20 + 15, "prompt rows plus one row per decode step");

            // From inside the prompt, its last row, the first decode row, a
            // later one, and the tail.
            for from in [0, 7, 19, 20, 28, len - 1] {
                for j in from..len {
                    let row = sched.active[0].seq.row_of(j);
                    for b in 0..blocks {
                        sched.arena.k_row_mut(b, row)[j % 8] += 3.0;
                        sched.arena.v_row_mut(b, row).fill(f32::NAN);
                    }
                }
                let Scheduler {
                    model,
                    arena,
                    scratch,
                    active,
                    ..
                } = &mut sched;
                let rebuilt =
                    Scheduler::rebuild_kv(model, arena, scratch, &mut active[0], from, &pool);
                assert_eq!(rebuilt, len - from);
                assert_eq!(rows_of(&sched, 0), clean, "rebuild from {from}");
                assert_eq!(rows_of(&sched, 1), mate, "batchmate after rebuild from {from}");
                for ar in &sched.active {
                    let guard = ar.guard.as_ref().expect("the default config seals");
                    assert_eq!(guard.verify(&sched.arena, &ar.seq), None);
                }
            }
        }
    }
}
