//! The three serving workloads. All drive `ft2_serve::Scheduler` from the
//! driving thread — `try_submit` → `step` → `drain_completions`, the loop
//! `Server`'s worker runs — with an `EventSink` channel as the clients'
//! token stream. A token becomes visible to its client at the instant the
//! `step` that emitted it returns, on the benchmark's clock.

use crate::common::{
    ft2_tap, ns_since, Base, Fixture, Latency, OpTimes, RunOutput, Timing, Window,
};
use crate::stats::{median, percentile};
use crate::taps::Chain;
use crate::trace::{Tracer, NO_REQ};
use crate::workload::{
    arrivals, decode_pool, prefill_pool, prompt, storm_pool, Fault, ReqSpec, Rng, CLIENTS,
    PREFILL_RATE, QUEUE_DEPTH, SLO_GAP_MS, SLO_TTFT_MS,
};
use ft2_model::hooks::LayerTap;
use ft2_model::{Model, ModelConfig, RecoveryPolicy, TapList, ZooModel};
use ft2_parallel::WorkStealingPool;
use ft2_serve::scheduler::{
    Completion, EvictReason, Outcome, Request, Scheduler, ServeConfig, SubmitError,
};
use ft2_serve::{EventSink, ServeEvent, StormTap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rollbacks a lane may take per step before the repair rung (the
/// scheduler's default ladder: two rollbacks, one repair, then eviction).
const RETRIES: u32 = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `serve_decode`: closed loop, clean.
    Decode,
    /// `serve_prefill`: open loop, clean.
    Prefill,
    /// `serve_storm`: closed loop, one request in four faulted.
    Storm,
}

pub struct Serve {
    kind: Kind,
    seed: u64,
    base: Base,
    pool: Vec<ReqSpec>,
    /// How each request of the pool must end, made in set-up.
    expected: Vec<Expected>,
}

/// The outcome and tokens a request must end with.
struct Expected {
    outcome: Outcome,
    tokens: Vec<u32>,
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: CLIENTS,
        queue_depth: QUEUE_DEPTH,
        recovery: RecoveryPolicy::retries(RETRIES).with_repair(),
        kv_guard: true,
    }
}

/// The tap a request carries: always the FT2 protector, behind the fault
/// injector when the request is a faulted one.
fn request_tap(config: &ModelConfig, fault: Fault) -> Box<dyn LayerTap + Send> {
    let ft2 = ft2_tap(config);
    match fault {
        Fault::None => Box::new(ft2),
        Fault::Transient { step } => Box::new(Chain(StormTap::transient(step, 1), ft2)),
        // Outlasts both rollbacks, so the ladder reaches the repair rung,
        // and heals on the re-decode the rung grants.
        Fault::KvFlip { step } => Box::new(Chain(StormTap::transient(step, RETRIES + 1), ft2)),
        Fault::Persistent { step } => Box::new(Chain(StormTap::persistent(step), ft2)),
    }
}

/// How a request must end.
///
/// * A clean request completes with the tokens of its single-sequence
///   `Model::generate` under the same protector. `None` when that
///   generation storms on its own (profiled bounds too tight for this
///   prompt): set-up draws such a prompt again, as the paper keeps only
///   inputs its models answer correctly.
/// * A faulted request has no single-sequence twin: the engine has no
///   arena to flip, and it accepts a token its retry budget could not clean
///   where the scheduler evicts. What follows a recovery also depends on how
///   far the rollbacks tightened the request's protector. So it must end
///   exactly as it does when a fresh scheduler serves it alone — same typed
///   outcome, same tokens — which is the isolation the ladder promises.
fn expected(model: &Arc<Model>, pool: &WorkStealingPool, spec: &ReqSpec) -> Option<Expected> {
    if spec.fault == Fault::None {
        let mut tap = request_tap(model.config(), Fault::None);
        let mut taps = TapList::new();
        taps.push(tap.as_mut());
        let out = model.generate(&spec.prompt, spec.gen_tokens, &mut taps);
        return (out.storms == 0).then_some(Expected {
            outcome: Outcome::Completed,
            tokens: out.tokens,
        });
    }
    let mut sched = Scheduler::new(Arc::clone(model), serve_config());
    sched
        .try_submit(request(model.config(), 0, spec))
        .expect("an empty queue admits");
    let mut flips = Vec::new();
    if matches!(spec.fault, Fault::KvFlip { .. }) {
        flips.push(flip_point(0, spec));
    }
    loop {
        apply_flips(&mut sched, &mut flips);
        assert!(
            sched.step(pool),
            "a lone request finishes before the scheduler idles"
        );
        if let Some(c) = sched.drain_completions().pop() {
            assert!(
                ladder_ok(&c, spec.fault),
                "{:?} did not take its rung when served alone: {c:?}",
                spec.fault
            );
            return Some(Expected {
                outcome: c.outcome,
                tokens: c.tokens,
            });
        }
    }
}

/// The rung of the ladder a fault must reach, whatever follows.
fn ladder_ok(c: &Completion, fault: Fault) -> bool {
    match fault {
        Fault::None => true,
        Fault::Transient { .. } => c.rollbacks >= 1,
        Fault::KvFlip { .. } => c.repair_retries >= 1 && c.kv_repairs > 0,
        Fault::Persistent { step } => {
            matches!(c.outcome, Outcome::Evicted(EvictReason::RetriesExhausted { step: s, .. }) if s <= step)
        }
    }
}

fn request(config: &ModelConfig, id: u64, spec: &ReqSpec) -> Request {
    Request {
        id,
        prompt: spec.prompt.clone(),
        gen_tokens: spec.gen_tokens,
        tap: Some(request_tap(config, spec.fault)),
    }
}

/// `(request id, KV length at which to flip)`: once `step` tokens are
/// accepted, the next decode is the strike step.
fn flip_point(id: u64, spec: &ReqSpec) -> (u64, usize) {
    let Fault::KvFlip { step } = spec.fault else {
        unreachable!("only KV-flip requests are flipped")
    };
    (id, spec.prompt.len() + step - 1)
}

/// Corrupt a sealed K row of every request that has reached its flip
/// point, behind the guard's back, through the public arena accessors.
fn apply_flips(sched: &mut Scheduler, pending: &mut Vec<(u64, usize)>) {
    pending.retain(|&(id, at_len)| match sched.lane_seq(id) {
        Some(seq) if seq.len() == at_len => {
            let row = seq.row_of(1);
            sched.arena_mut().k_row_mut(0, row)[0] += 7.0;
            false
        }
        _ => true,
    });
}

pub fn setup(kind: Kind, seed: u64) -> Serve {
    let base = Base::build(&[ZooModel::Opt6_7B]);
    let vocab = base.models[0].config().vocab;
    let mut pool = match kind {
        Kind::Decode => decode_pool(seed, vocab),
        Kind::Prefill => prefill_pool(seed, vocab),
        Kind::Storm => storm_pool(seed, vocab),
    };
    let expected = pool
        .iter_mut()
        .enumerate()
        .map(|(i, spec)| {
            let mut redraw = Rng::new(seed, 1000 + i as u64);
            loop {
                match expected(&base.models[0], &base.pool, spec) {
                    Some(e) => return e,
                    None => spec.prompt = prompt(&mut redraw, spec.prompt.len(), vocab),
                }
            }
        })
        .collect();
    Serve {
        kind,
        seed,
        base,
        pool,
        expected,
    }
}

/// One request as its client sees it.
struct Op {
    spec: usize,
    times: OpTimes,
    admitted_ns: Option<u64>,
    /// Time of the last token before a rollback struck, until the next
    /// token closes the recovery gap.
    struck_after: Option<u64>,
    done: bool,
    met_outcome: bool,
}

/// Does `c` end the way the request's fault dictates?
fn outcome_ok(c: &Completion, spec: &ReqSpec, expected: &Expected) -> bool {
    ladder_ok(c, spec.fault) && c.outcome == expected.outcome && c.tokens == expected.tokens
}

/// Wait for `due` on the run's clock: sleep while it is far, spin when near
/// (a sleep overshoots by tens of microseconds).
fn wait_until(origin: Instant, due: u64) {
    loop {
        let now = ns_since(origin);
        if now >= due {
            return;
        }
        if due - now > 300_000 {
            std::thread::sleep(Duration::from_nanos(due - now - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Fixture for Serve {
    fn base(&self) -> &Base {
        &self.base
    }

    fn run(&mut self, timing: Timing, tracer: &mut Tracer) -> RunOutput {
        let mut out = RunOutput::default();
        let model = Arc::clone(&self.base.models[0]);
        let pool = &self.base.pool;
        let mut sched = Scheduler::new(Arc::clone(&model), serve_config());
        let (sink, events) = EventSink::channel();
        sched.set_event_sink(sink);

        let origin = Instant::now();
        let w = Window {
            t0: (timing.warm_s * 1e9) as u64,
            t1: ((timing.warm_s + timing.window_s) * 1e9) as u64,
        };
        let open = self.kind == Kind::Prefill;
        let schedule = if open {
            arrivals(self.seed, PREFILL_RATE, timing.warm_s + timing.window_s)
        } else {
            Vec::new()
        };
        let mut next_arrival = 0usize;
        let mut idle_clients = if open { 0 } else { CLIENTS };
        let mut starts: Vec<u64> = Vec::new();

        let mut ops: Vec<Op> = Vec::new();
        let mut pending_flips: Vec<(u64, usize)> = Vec::new();
        let mut late_ms: Vec<f64> = Vec::new();
        let mut backlog_end: Option<usize> = None;
        // Step accounting, timed window only.
        let mut decode_us: Vec<f64> = Vec::new();
        let mut lane_token_us: Vec<f64> = Vec::new();
        let mut admit_steps: Vec<(f64, usize)> = Vec::new();
        let mut rebuild_step_ms: Vec<f64> = Vec::new();
        let mut lanes_sum = 0u64;
        let mut steps = 0u64;
        let mut occupancy_sum = 0.0f64;
        let mut pages_peak = 0usize;
        let mut recovery_ms: Vec<f64> = Vec::new();
        let mut false_clamps = 0u64;
        let (mut rollbacks, mut repairs, mut evictions, mut kv_rebuilt) = (0u64, 0u64, 0u64, 0u64);

        let root = tracer.begin("serve.run", NO_REQ);
        loop {
            let now = ns_since(origin);
            // Submissions: a closed-loop client sends its next request as
            // soon as its previous one has completed; the open loop sends
            // whatever has come due, and times it from when it was due.
            if open {
                while next_arrival < schedule.len() && schedule[next_arrival] <= now {
                    starts.push(schedule[next_arrival]);
                    next_arrival += 1;
                }
            } else if now < w.t1 {
                starts.resize(idle_clients, now);
                idle_clients = 0;
            }
            for start_ns in starts.drain(..) {
                let id = ops.len() as u64;
                let k = ops.len() % self.pool.len();
                let spec = &self.pool[k];
                let req = request(model.config(), id, spec);
                let span = tracer.begin("serve.try_submit", id);
                let sent = sched.try_submit(req);
                tracer.end(span);
                out.attempted += 1;
                ops.push(Op {
                    spec: k,
                    times: OpTimes {
                        start_ns,
                        tokens_ns: Vec::with_capacity(spec.gen_tokens),
                        clean: spec.fault == Fault::None,
                    },
                    admitted_ns: None,
                    struck_after: None,
                    done: sent.is_err(),
                    met_outcome: false,
                });
                match sent {
                    Ok(()) => {
                        if matches!(spec.fault, Fault::KvFlip { .. }) {
                            pending_flips.push(flip_point(id, spec));
                        }
                    }
                    Err(e) => {
                        debug_assert_eq!(e, SubmitError::QueueFull);
                        out.fail(format!(
                            "{}: request {id} refused at admission: {e:?}",
                            self.name()
                        ));
                    }
                }
                if open && w.holds(start_ns) {
                    late_ms.push((now - start_ns) as f64 / 1e6);
                }
            }
            if open && next_arrival == schedule.len() {
                backlog_end.get_or_insert(sched.queued());
            }

            if sched.is_idle() {
                if open && next_arrival < schedule.len() {
                    wait_until(origin, schedule[next_arrival]);
                    continue;
                }
                if open || now >= w.t1 {
                    break;
                }
            }

            apply_flips(&mut sched, &mut pending_flips);

            let queued_before = sched.queued();
            let lanes_before = sched.active();
            let span = tracer.begin("serve.step", NO_REQ);
            let t_call = ns_since(origin);
            sched.step(pool);
            let t_ret = ns_since(origin);
            let admitted = queued_before - sched.queued();
            tracer.end_as(
                span,
                if admitted > 0 {
                    "serve.step.admit"
                } else {
                    "serve.step.decode"
                },
            );

            let span = tracer.begin("bench.events", NO_REQ);
            let mut repaired = false;
            while let Ok(ev) = events.try_recv() {
                match ev {
                    ServeEvent::Admitted { id, .. } => ops[id as usize].admitted_ns = Some(t_ret),
                    ServeEvent::Token { id, report, .. } => {
                        let op = &mut ops[id as usize];
                        if let Some(before) = op.struck_after.take() {
                            if w.holds(t_ret) {
                                recovery_ms.push((t_ret - before) as f64 / 1e6);
                            }
                        }
                        if op.times.clean {
                            false_clamps += report.corrections();
                        }
                        op.times.tokens_ns.push(t_ret);
                    }
                    ServeEvent::Rollback { id, .. } => {
                        let op = &mut ops[id as usize];
                        if op.struck_after.is_none() {
                            op.struck_after = op.times.tokens_ns.last().copied();
                        }
                    }
                    ServeEvent::Repair { .. } => repaired = true,
                    _ => {}
                }
            }
            tracer.end(span);

            let span = tracer.begin("serve.drain_completions", NO_REQ);
            let completions = sched.drain_completions();
            tracer.end(span);
            let span = tracer.begin("bench.check", NO_REQ);
            for c in completions {
                let op = &mut ops[c.id as usize];
                let spec = &self.pool[op.spec];
                op.done = true;
                op.met_outcome = outcome_ok(&c, spec, &self.expected[op.spec])
                    && op.times.tokens_ns.len() == c.tokens.len();
                if !op.met_outcome {
                    out.fail(format!(
                        "{}: request {} ({:?}) ended {:?} with {} tokens, {} rollbacks, {} repairs",
                        self.name(),
                        c.id,
                        spec.fault,
                        c.outcome,
                        c.tokens.len(),
                        c.rollbacks,
                        c.repair_retries
                    ));
                }
                rollbacks += c.rollbacks as u64;
                repairs += c.repair_retries as u64;
                kv_rebuilt += c.kv_repairs as u64;
                evictions += matches!(c.outcome, Outcome::Evicted(_)) as u64;
                idle_clients += !open as usize;
            }
            tracer.end(span);

            if w.holds(t_ret) {
                let dur_us = (t_ret - t_call) as f64 / 1e3;
                let lanes = lanes_before + admitted;
                steps += 1;
                lanes_sum += lanes as u64;
                if admitted > 0 {
                    admit_steps.push((dur_us, admitted));
                } else {
                    decode_us.push(dur_us);
                    lane_token_us.push(dur_us / lanes.max(1) as f64);
                }
                if repaired {
                    rebuild_step_ms.push(dur_us / 1e3);
                }
                let arena = sched.arena_mut();
                pages_peak = pages_peak.max(arena.pages_in_use());
                occupancy_sum += arena.pages_in_use() as f64 / arena.capacity_pages().max(1) as f64;
            }
        }
        tracer.end(root);

        for (id, op) in ops.iter().enumerate() {
            if !op.done {
                out.fail(format!("{}: request {id} never completed", self.name()));
            }
        }
        if sched.arena_mut().pages_in_use() != 0 {
            out.fail(format!(
                "{}: {} arena pages still in use after the drain",
                self.name(),
                sched.arena_mut().pages_in_use()
            ));
        }

        let mut lat = Latency::collect(ops.iter().map(|o| &o.times), w);
        out.e2e.set("tok_s", lat.tok_s(w));
        lat.report(&mut out.e2e, &mut out.layer);

        let l = &mut out.layer;
        let mut wait_ms: Vec<f64> = ops
            .iter()
            .filter(|o| w.holds(o.times.start_ns))
            .filter_map(|o| o.admitted_ns.map(|a| (a - o.times.start_ns) as f64 / 1e6))
            .collect();
        l.set("serve.queue.wait_ms_p50", percentile(&mut wait_ms, 50.0));
        l.set("serve.queue.wait_ms_p99", percentile(&mut wait_ms, 99.0));
        let decode_p50 = percentile(&mut decode_us, 50.0);
        l.set("serve.step.decode_us", decode_p50);
        l.set(
            "serve.step.lane_token_us",
            percentile(&mut lane_token_us, 50.0),
        );
        l.set(
            "serve.step.batch_mean",
            lanes_sum as f64 / steps.max(1) as f64,
        );
        let admitted: usize = admit_steps.iter().map(|s| s.1).sum();
        let admit_total_us: f64 = admit_steps.iter().map(|s| s.0).sum();
        l.set(
            "serve.step.admit_ms_per_req",
            admit_total_us / 1e3 / admitted.max(1) as f64,
        );
        // What admission adds to a step beyond the decode it also ran,
        // as a share of all time spent inside `step`.
        let admit_excess_us: f64 = admit_steps
            .iter()
            .map(|s| (s.0 - decode_p50).max(0.0))
            .sum();
        let all_steps_us = admit_total_us + decode_us.iter().sum::<f64>();
        l.set(
            "serve.step.admit_share",
            admit_excess_us / all_steps_us.max(1e-9),
        );
        l.set("serve.arena.pages_peak", pages_peak as f64);
        l.set("serve.arena.occupancy", occupancy_sum / steps.max(1) as f64);
        l.set("serve.ladder.rollbacks", rollbacks as f64);
        l.set("serve.ladder.repairs", repairs as f64);
        l.set("serve.ladder.evictions", evictions as f64);
        l.set("serve.ladder.kv_rebuilt", kv_rebuilt as f64);
        l.set("serve.ladder.rebuild_step_ms", median(&mut rebuild_step_ms));
        l.set("recovery_gap_ms_p50", percentile(&mut recovery_ms, 50.0));
        l.set("core.protect.false_clamps", false_clamps as f64);
        if open {
            l.set("gen.late_ms_p99", percentile(&mut late_ms, 99.0));
            l.set("gen.backlog_end", backlog_end.unwrap_or(0) as f64);
            // Of the requests sent in the window, those admitted, completed
            // and inside both latency limits.
            let sent: Vec<&Op> = ops.iter().filter(|o| w.holds(o.times.start_ns)).collect();
            let met = sent
                .iter()
                .filter(|o| o.met_outcome && meets_slo(&o.times))
                .count();
            l.set("slo_share", met as f64 / sent.len().max(1) as f64);
        }
        out
    }
}

fn meets_slo(t: &OpTimes) -> bool {
    let Some(&first) = t.tokens_ns.first() else {
        return false;
    };
    let ttft_ms = (first - t.start_ns) as f64 / 1e6;
    let worst_gap_ms = t
        .tokens_ns
        .windows(2)
        .map(|p| p[1] - p[0])
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    ttft_ms <= SLO_TTFT_MS && worst_gap_ms <= SLO_GAP_MS
}

impl Serve {
    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Decode => "serve_decode",
            Kind::Prefill => "serve_prefill",
            Kind::Storm => "serve_storm",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_needs_a_first_token_and_both_limits() {
        let ms = 1_000_000u64;
        let ok = OpTimes {
            start_ns: 0,
            tokens_ns: vec![10 * ms, 12 * ms, 14 * ms],
            clean: true,
        };
        assert!(meets_slo(&ok));
        let slow_first = OpTimes {
            start_ns: 0,
            tokens_ns: vec![(SLO_TTFT_MS as u64 + 1) * ms],
            clean: true,
        };
        assert!(!meets_slo(&slow_first));
        let stalled = OpTimes {
            start_ns: 0,
            tokens_ns: vec![ms, (SLO_GAP_MS as u64 + 2) * ms],
            clean: true,
        };
        assert!(!meets_slo(&stalled));
        assert!(!meets_slo(&OpTimes::default()));
    }
}
