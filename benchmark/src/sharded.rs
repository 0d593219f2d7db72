//! `sharded_decode`: the solo prompts through the 2-shard executor,
//! fault-free — per-shard partial GEMMs as pool tasks behind the f64 seam.

use crate::common::{ns_since, Base, Fixture, Latency, OpTimes, Phases, RunOutput, Timing, MODELS};
use crate::stats::median;
use crate::taps::TokenClock;
use crate::trace::{Tracer, NO_REQ};
use crate::workload::{solo_specs, GenSpec, SHARDS, SHARD_GEN};
use ft2_model::{RecoveryPolicy, ShardTapList, ShardedModel, TapList};
use ft2_parallel::catch_quiet;
use std::time::{Duration, Instant};

/// The hang-isolation heartbeat `ft2-repro shards` deploys by default
/// (`FT2_SHARD_HEARTBEAT_MS`). Every generation spawns and joins the
/// monitor thread, so its poll period is part of what a caller waits for.
pub const HEARTBEAT: Duration = Duration::from_millis(50);

// FLAKY. On the seed, about two in a million pool dispatches run a stale
// closure: a worker of `WorkStealingPool::try_run` clones the batch closure
// before it counts itself `active`, so the caller can return (and publish the
// next batch) in between, and the worker then runs the new batch's block
// with the old closure. The 2-shard executor dispatches ~900 k two-task
// batches per run, so a fault-free generation now and then loses a partial
// (typed `Crash`), returns wrong tokens or panics on the driving thread.
// The benchmark may not change the pool, and the driver wants workloads on
// which no operation fails, so a generation that goes wrong is run again
// once and counted in `model.shard.flaky`; going wrong twice is a failed
// operation. The wasted attempt stays in the wall time; its tokens do not
// count. A fix to the pool should take `model.shard.flaky` to 0.

pub struct Sharded {
    base: Base,
    specs: Vec<GenSpec>,
    /// Dense generation of each spec, made in set-up.
    refs: Vec<Vec<u32>>,
}

pub fn setup(seed: u64) -> Sharded {
    let base = Base::build(&MODELS);
    let specs = solo_specs(seed, SHARD_GEN, base.models[0].config().vocab);
    let refs = specs
        .iter()
        .map(|s| {
            base.models[s.model]
                .generate(&s.prompt, s.gen_tokens, &mut TapList::new())
                .tokens
        })
        .collect();
    // The partition is rebuilt in `run` (it borrows the model); building it
    // here puts its cost into the set-up time.
    for m in &base.models {
        std::hint::black_box(ShardedModel::new(m, SHARDS));
    }
    Sharded { base, specs, refs }
}

impl Fixture for Sharded {
    fn base(&self) -> &Base {
        &self.base
    }

    fn run(&mut self, timing: Timing, tracer: &mut Tracer) -> RunOutput {
        let origin = Instant::now();
        let mut out = RunOutput::default();
        let mut phases = Phases::start(origin, timing);
        let mut sharded: Vec<ShardedModel<'_>> = self
            .base
            .models
            .iter()
            .map(|m| ShardedModel::new(m, SHARDS))
            .collect();

        let mut ops: Vec<OpTimes> = Vec::new();
        let mut teardown_ms: Vec<f64> = Vec::new();
        let mut flaky = 0u64;
        let root = tracer.begin("shard.run", NO_REQ);
        let mut i = 0usize;
        while let Some(timed) = phases.next_is_timed() {
            let k = i % self.specs.len();
            let spec = &self.specs[k];
            // One generation, at most twice (see `FLAKY`).
            let mut attempt = 0;
            let done = loop {
                let mut clock = TokenClock::new(origin, spec.gen_tokens);
                let start_ns = ns_since(origin);
                let span = tracer.begin("model.shard.generate_with", i as u64);
                let gen = catch_quiet(|| {
                    let mut taps = ShardTapList::new();
                    taps.push(&mut clock);
                    sharded[spec.model].generate_with(
                        &self.base.pool,
                        &spec.prompt,
                        spec.gen_tokens,
                        &mut taps,
                        RecoveryPolicy::disabled(),
                        HEARTBEAT,
                    )
                });
                tracer.end(span);
                let end_ns = ns_since(origin);
                let wrong = match &gen {
                    Err(panic) => Some(format!("panicked at {}: {}", panic.site, panic.message)),
                    Ok(g) => match &g.failed {
                        Some(f) => Some(format!("ended early: {f:?}")),
                        None if g.tokens != self.refs[k] => {
                            Some("differs from the dense reference".to_string())
                        }
                        None => None,
                    },
                };
                match wrong {
                    None => break Some((start_ns, end_ns, clock.stamps)),
                    Some(_) if attempt == 0 => {
                        attempt = 1;
                        flaky += 1;
                    }
                    Some(why) => {
                        out.fail(format!("sharded_decode: generation {k} {why}, twice"));
                        break None;
                    }
                }
            };
            i += 1;
            if !timed {
                continue;
            }
            out.attempted += 1;
            if let Some((start_ns, end_ns, stamps)) = done {
                if let Some(&last) = stamps.last() {
                    teardown_ms.push((end_ns - last) as f64 / 1e6);
                }
                ops.push(OpTimes {
                    start_ns,
                    tokens_ns: stamps,
                    clean: true,
                });
            }
        }
        tracer.end(root);
        let w = phases.window();

        let mut lat = Latency::collect(&ops, w);
        out.e2e.set("tok_s", lat.tok_s(w));
        lat.report(&mut out.e2e, &mut out.layer);
        out.layer
            .set("model.shard.teardown_ms", median(&mut teardown_ms));
        out.layer.set("model.shard.flaky", flaky as f64);
        if flaky > 0 {
            out.problem(format!(
                "sharded_decode: {flaky} generation(s) went wrong once and passed when run again"
            ));
        }
        out
    }
}
