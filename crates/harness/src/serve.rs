//! The serving-runtime gate behind `ft2-repro serve`.
//!
//! Drives the `ft2-serve` continuous-batching scheduler end to end on fixed
//! fixtures (OPT-6.7B stand-in, deterministic SQuAD-style prompts) and
//! checks, one [`Check`] per guarantee:
//!
//! * **identity** — at every swept batch size {1, 4, 8} (capped by
//!   `FT2_SERVE_MAX_BATCH`) every request completes with tokens
//!   bit-identical to its single-sequence [`ft2_model::Model::generate`]
//!   (a batch must never change anyone's answer);
//! * **fault isolation** — a transient fault storm confined to one request
//!   of a batch-4 run: the storming request rolls back, re-decodes alone
//!   and completes, and every request of that run — clean batchmates and
//!   the stormer — still matches its solo generation.
//!
//! The gate times nothing: serving throughput and latency are the
//! `serve_decode` / `serve_storm` workloads of `benchmark/`. Sizing:
//! `--smoke` / `FT2_QUICK=1`; `FT2_SERVE_MAX_BATCH` and
//! `FT2_SERVE_QUEUE_DEPTH` shape the scheduler.

use crate::report::Check;
use crate::settings::{env_usize, quick_mode};
use ft2_model::{Model, RecoveryPolicy, TapList, ZooModel};
use ft2_parallel::WorkStealingPool;
use ft2_serve::scheduler::{Completion, Outcome, Request, Scheduler, ServeConfig};
use ft2_serve::StormTap;
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::DatasetId;
use std::sync::Arc;

/// Serve `requests` clean requests (prompt i, cycling) at one batch size.
#[allow(clippy::too_many_arguments)]
fn serve_wave(
    model: &Arc<Model>,
    pool: &WorkStealingPool,
    prompts: &[Vec<u32>],
    gen_tokens: usize,
    batch: usize,
    queue_depth: usize,
    requests: usize,
    storm_first: bool,
) -> Vec<Completion> {
    let config = ServeConfig {
        max_batch: batch,
        queue_depth: queue_depth.max(requests),
        recovery: RecoveryPolicy::retries(2).with_repair(),
        kv_guard: true,
    };
    let mut sched = Scheduler::new(Arc::clone(model), config);
    for i in 0..requests {
        let tap: Option<Box<dyn ft2_model::LayerTap + Send>> =
            (storm_first && i == 0).then(|| Box::new(StormTap::transient(3, 1)) as _);
        sched
            .try_submit(Request {
                id: i as u64,
                prompt: prompts[i % prompts.len()].clone(),
                gen_tokens,
                tap,
            })
            .expect("gate request rejected at admission");
    }
    let mut completions = sched.run(pool);
    completions.sort_by_key(|c| c.id);
    completions
}

/// Run the serving gate. `smoke` (or `FT2_QUICK=1`) shrinks request
/// counts and generation length for CI.
pub fn run(pool: &WorkStealingPool, smoke: bool) -> Vec<Check> {
    let quick = smoke || quick_mode();
    let gen_tokens = if quick { 8 } else { 16 };
    let max_batch = env_usize("FT2_SERVE_MAX_BATCH").unwrap_or(8).max(1);
    let queue_depth = env_usize("FT2_SERVE_QUEUE_DEPTH").unwrap_or(64).max(1);
    let waves = if quick { 1 } else { 2 };

    let model = Arc::new(ZooModel::Opt6_7B.spec().build());
    let batch_sizes: Vec<usize> = [1usize, 4, 8]
        .into_iter()
        .filter(|&b| b <= max_batch)
        .collect();
    let most = batch_sizes.iter().copied().max().unwrap_or(1) * waves;
    let prompts = generate_prompts(DatasetId::Squad, most.min(8), 0xBE7C4);

    // Solo references: the single-sequence generation every served request
    // must match bit-for-bit.
    let solo: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            let mut taps = TapList::new();
            model.generate(p, gen_tokens, &mut taps).tokens
        })
        .collect();
    let matches_solo = |c: &Completion| c.tokens == solo[c.id as usize % prompts.len()];

    // Fault-free sweep.
    let mut checks = Vec::new();
    for &batch in &batch_sizes {
        let requests = batch * waves;
        let done = serve_wave(
            &model,
            pool,
            &prompts,
            gen_tokens,
            batch,
            queue_depth,
            requests,
            false,
        );
        let identical = done
            .iter()
            .filter(|c| c.outcome == Outcome::Completed && matches_solo(c))
            .count();
        checks.push(Check::new(
            format!("batch {batch} identity"),
            done.len() == requests && identical == requests,
            format!("{identical} of {requests} requests completed identical to solo"),
        ));
    }

    // Fault drill: one transient storm confined to request 0 of a batch-4
    // run; batchmates keep stepping while it rolls back.
    let storm_batch = 4usize.min(max_batch);
    let requests = storm_batch * waves;
    let done = serve_wave(
        &model,
        pool,
        &prompts,
        gen_tokens,
        storm_batch,
        queue_depth,
        requests,
        true,
    );
    let stormer = done.iter().find(|c| c.id == 0);
    let rollbacks = stormer.map_or(0, |c| c.rollbacks);
    checks.push(Check::new(
        "storm heals by rollback",
        stormer.is_some_and(|c| c.outcome == Outcome::Completed) && rollbacks >= 1,
        format!(
            "outcome {}, {rollbacks} rollback(s)",
            stormer.map_or("Missing", |c| c.outcome.label())
        ),
    ));
    let identical = done.iter().filter(|c| matches_solo(c)).count();
    checks.push(Check::new(
        "storm identity",
        done.len() == requests && identical == requests,
        format!("{identical} of {requests} requests (stormer included) identical to solo"),
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::gate_passes;

    #[test]
    fn smoke_run_upholds_identity_and_isolation() {
        let pool = WorkStealingPool::new(3);
        let checks = run(&pool, true);
        assert!(gate_passes(&checks), "serving gate failed: {checks:#?}");
        let named = |prefix: &str| checks.iter().find(|c| c.name.starts_with(prefix));
        assert!(named("batch 1 ").is_some());
        assert!(named("batch 4 ").is_some() || named("batch 8 ").is_some());
        let heals = named("storm heals").expect("storm drill ran");
        assert!(heals.detail.contains("Completed"), "{heals:?}");
        assert!(
            heals.pass,
            "the storm must have struck and healed: {heals:?}"
        );
    }
}
