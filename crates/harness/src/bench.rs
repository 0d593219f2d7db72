//! Machine-readable benchmark baselines for the decode hot path.
//!
//! `ft2-repro bench` measures the three throughput quantities the
//! reproduction's performance work is judged by, on fixed fixtures
//! (OPT-6.7B stand-in, deterministic SQuAD-style prompts, 16 generated
//! tokens):
//!
//! * **prefill tok/s** — prompt tokens per second through a single
//!   [`Model::forward_step`] prefill;
//! * **decode tok/s** — generated tokens per second through the scratch-reuse
//!   generation loop (full [`Model::generate`] minus the measured prefill);
//! * **campaign trials/s** — unprotected fault-injection trials per second on
//!   the work-stealing pool, the end-to-end quantity campaigns feel.
//!
//! With `--json` the report is also written as a small hand-rolled JSON
//! document (the workspace is dependency-free, so no serde) whose keys are
//! schema-stable: CI checks in a committed `BENCH_decode.json` baseline and
//! greps/compares fields across commits to gate perf regressions. Bump
//! [`BENCH_SCHEMA_VERSION`] when a key changes meaning.
//!
//! Sizing knobs: `FT2_BENCH_REPS` (timing repetitions, best-of), wall-clock
//! only — the measured generations themselves are deterministic.
//! `FT2_BENCH_GEN` (generated tokens), `FT2_BENCH_TRIALS` (campaign trials
//! per input), `FT2_QUICK=1` (small everything, for smoke tests).

use crate::settings::{env_usize, quick_mode};
use ft2_fault::{Campaign, CampaignConfig, FaultModel, Unprotected};
use ft2_model::engine::KvCache;
use ft2_model::{Model, TapList, ZooModel};
use ft2_parallel::WorkStealingPool;
use ft2_tasks::datasets::generate_prompts;
use ft2_tasks::{DatasetId, TaskSpec};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Version of the JSON report schema. Bump when a key changes meaning.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Default output path for the JSON report.
pub const BENCH_BASELINE_PATH: &str = "BENCH_decode.json";

/// One benchmark run's measurements.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Benchmarked model name (the fixture model).
    pub model: String,
    /// Worker threads the campaign ran on.
    pub threads: usize,
    /// Best-of repetitions per timed quantity.
    pub reps: usize,
    /// Prompt length of the prefill measurement.
    pub prefill_tokens: usize,
    /// Generated tokens of the decode measurement.
    pub gen_tokens: usize,
    /// Prompt tokens per second through prefill.
    pub prefill_tok_s: f64,
    /// Generated tokens per second through the decode loop.
    pub decode_tok_s: f64,
    /// Total fault-injection trials in the campaign measurement.
    pub campaign_trials: usize,
    /// Unprotected campaign trials per second.
    pub campaign_trials_s: f64,
}

impl BenchReport {
    /// Serialise as the schema-stable JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {BENCH_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"model\": \"{}\",", self.model);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"reps\": {},", self.reps);
        let _ = writeln!(s, "  \"prefill_tokens\": {},", self.prefill_tokens);
        let _ = writeln!(s, "  \"gen_tokens\": {},", self.gen_tokens);
        let _ = writeln!(s, "  \"prefill_tok_s\": {:.3},", self.prefill_tok_s);
        let _ = writeln!(s, "  \"decode_tok_s\": {:.3},", self.decode_tok_s);
        let _ = writeln!(s, "  \"campaign_trials\": {},", self.campaign_trials);
        let _ = writeln!(s, "  \"campaign_trials_s\": {:.3}", self.campaign_trials_s);
        s.push('}');
        s.push('\n');
        s
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        format!(
            "model {} | threads {} | best of {} rep(s)\n\
             prefill  {:>10.1} tok/s  ({} prompt tokens)\n\
             decode   {:>10.1} tok/s  ({} generated tokens)\n\
             campaign {:>10.2} trials/s ({} unprotected trials)",
            self.model,
            self.threads,
            self.reps,
            self.prefill_tok_s,
            self.prefill_tokens,
            self.decode_tok_s,
            self.gen_tokens,
            self.campaign_trials_s,
            self.campaign_trials,
        )
    }
}

fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Run the benchmark suite and collect a [`BenchReport`].
///
/// Deterministic in its measured work (fixed fixtures); only
/// the timings vary run to run, hence best-of-`reps`.
pub fn run(pool: &WorkStealingPool) -> BenchReport {
    let quick = quick_mode();
    let reps = env_usize("FT2_BENCH_REPS").unwrap_or(if quick { 1 } else { 3 });
    let gen_tokens = env_usize("FT2_BENCH_GEN").unwrap_or(16).max(8);
    let trials = env_usize("FT2_BENCH_TRIALS").unwrap_or(if quick { 3 } else { 10 });
    let campaign_inputs = if quick { 2 } else { 4 };

    // The fixtures: OPT-6.7B stand-in, deterministic QA prompts.
    let model: Model = ZooModel::Opt6_7B.spec().build();
    let prompts = generate_prompts(DatasetId::Squad, campaign_inputs.max(1), 0xBE7C4);
    let prompt = &prompts[0];

    // Prefill: one forward over the whole prompt into a fresh cache.
    let t_prefill = best_of(reps, || {
        let mut taps = TapList::new();
        let mut cache = KvCache::new(model.config());
        let hidden = model.forward_step(prompt, 0, 0, &mut cache, &mut taps);
        std::hint::black_box(&hidden);
    });

    // Decode: a full generation (prefill + gen_tokens of scratch-reuse decode
    // loop); the decode share is the total minus the measured prefill.
    let t_total = best_of(reps, || {
        let mut taps = TapList::new();
        let out = model.generate(prompt, gen_tokens, &mut taps);
        std::hint::black_box(&out);
    });
    let t_decode = (t_total - t_prefill).max(1e-9);

    // Campaign throughput: unprotected transient exponent-bit trials, the
    // configuration every figure's baseline column runs.
    let task = TaskSpec::new(DatasetId::Squad.task_type(), gen_tokens);
    let judge = task.judge();
    let cfg = CampaignConfig {
        trials_per_input: trials,
        gen_tokens,
        ..CampaignConfig::quick(FaultModel::ExponentBit)
    };
    let campaign = Campaign::new(&model, &prompts, &judge, cfg, pool);
    let total_trials = prompts.len() * trials;
    let t_campaign = best_of(1, || {
        let result = campaign.run(&Unprotected, pool);
        std::hint::black_box(&result);
    });

    BenchReport {
        model: model.config().name.to_string(),
        threads: pool.threads(),
        reps,
        prefill_tokens: prompt.len(),
        gen_tokens,
        prefill_tok_s: prompt.len() as f64 / t_prefill.max(1e-9),
        decode_tok_s: gen_tokens as f64 / t_decode,
        campaign_trials: total_trials,
        campaign_trials_s: total_trials as f64 / t_campaign.max(1e-9),
    }
}

/// Write the JSON report atomically (temp file + rename, like campaign
/// checkpoints) so a crash mid-write never corrupts an existing baseline.
pub fn write_json(report: &BenchReport, path: &Path) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, report.to_json())
        .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            model: "OPT-6.7B".to_string(),
            threads: 2,
            reps: 1,
            prefill_tokens: 21,
            gen_tokens: 16,
            prefill_tok_s: 1234.5678,
            decode_tok_s: 17000.25,
            campaign_trials: 8,
            campaign_trials_s: 3.5,
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let json = sample().to_json();
        for key in [
            "\"schema\": 1",
            "\"model\": \"OPT-6.7B\"",
            "\"threads\": 2",
            "\"reps\": 1",
            "\"prefill_tokens\": 21",
            "\"gen_tokens\": 16",
            "\"prefill_tok_s\": 1234.568",
            "\"decode_tok_s\": 17000.250",
            "\"campaign_trials\": 8",
            "\"campaign_trials_s\": 3.500",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Well-formed enough for line-oriented CI tooling: one key per line,
        // braces on their own lines.
        assert!(json.starts_with("{\n") && json.ends_with("}\n"), "{json}");
    }

    #[test]
    fn write_json_roundtrips_atomically() {
        let dir = std::env::temp_dir().join("ft2_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_decode.json");
        write_json(&sample(), &path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, sample().to_json());
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summary_mentions_every_quantity() {
        let s = sample().summary();
        assert!(s.contains("prefill") && s.contains("decode") && s.contains("campaign"));
        assert!(s.contains("tok/s") && s.contains("trials/s"));
    }
}
