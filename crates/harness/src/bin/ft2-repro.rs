//! `ft2-repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! ft2-repro [--resume] <experiment> [...]
//!   experiments: table1 table2 fig2 fig3 fig4 fig6 fig7 fig8 fig9 fig10
//!                fig11 fig12 fig13 fig14 fig15 fig16 ablations recovery
//!                persistent all
//!
//! ft2-repro replay <seed>/<input>/<trial> \
//!           [--model M] [--dataset D] [--scheme S] [--fault F] \
//!           [--duration transient|intermittent[:N]|persistent] \
//!           [--target activation|weight|kv-cache]
//!   re-runs exactly one campaign trial with verbose tracing: the injected
//!   site and corrupted value, the outcome, and per-layer NaN/Inf anomaly
//!   events. Crashed trials are listed by campaigns as seed/input/trial
//!   pointers for exactly this command.
//!
//! ft2-repro shards [--smoke]
//!   sharded-execution gate: for each swept zoo config and shard count,
//!   checks that fault-free N-shard decode is token-identical to 1-shard,
//!   shard-level repair clears a persistent shard fault cheaper than a
//!   full restart, and a one-shard crash with degrade keeps serving
//!   (reported Outcome::Degraded, never silent). Knobs: FT2_SHARDS,
//!   FT2_SHARD_HEARTBEAT_MS.
//!
//! ft2-repro serve [--smoke] [--web]
//!   continuous-batching serving gate: batch-N vs solo token identity on
//!   fault-free traffic for batch sizes {1, 4, 8}, and a per-request
//!   fault storm (one lane of a batch-4 run) that must heal by rollback
//!   while every request stays token-identical. --web instead serves
//!   continuous live traffic behind a zero-dependency HTTP/SSE endpoint:
//!   GET / is an embedded viewer (verdict-colored tokens, per-block
//!   heatmap, recovery markers, replica health), GET /events streams the
//!   scheduler's decisions as Server-Sent Events, and POST /inject takes
//!   live fault specs (kind=flip&block=2, kind=crash&replica=0, ...).
//!   Knobs: FT2_SERVE_MAX_BATCH, FT2_SERVE_QUEUE_DEPTH, FT2_WEB_ADDR,
//!   FT2_WEB_MAX_CLIENTS, FT2_QUICK=1.
//!
//! ft2-repro replicas [--smoke]
//!   cross-replica failover gate: a replica crash mid-batch hands its
//!   in-flight requests over with zero accepted-token loss and
//!   bit-identical continuations (typed FailedOver outcomes), a
//!   persistent one-replica activation storm trips the breaker into
//!   quarantine while every request stays identical, and the quarantined
//!   replica rebuilds its weights live from the golden copy and rejoins
//!   faster than a full restart. Knobs: FT2_REPLICAS,
//!   FT2_REPLICA_RETRY_BUDGET, FT2_REPLICA_BACKOFF_MS,
//!   FT2_REPLICA_QUARANTINE_ERRS, FT2_QUICK=1.
//!
//!   The three gates print one pass/FAIL row per guarantee and exit
//!   non-zero if any fails. They time nothing beyond the two
//!   repair-vs-restart comparisons: throughput and latency are measured
//!   by `bash benchmark/run.sh` (metric names in BENCHMARK.json).
//!
//! ft2-repro lint [--json] [--root PATH]
//!   static analysis: the repo-specific source lints (unsafe-safety,
//!   nan-comparison, env-knob, zero-skip) plus the protection-coverage
//!   proof (critical-layer clamp taps across all seven zoo configs,
//!   outcome pricing, checkpoint versions). Exits non-zero on any finding
//!   or coverage gap; --json emits the schema-stable report CI greps.
//!
//! Sizing (env): FT2_INPUTS (12), FT2_TRIALS (30), FT2_SEED, FT2_QUICK=1
//!
//! Resilience (env):
//!   FT2_CHECKPOINT_EVERY   checkpoint the campaign aggregate every N
//!                          trials (enables checkpointing)
//!   FT2_CHECKPOINT_DIR     checkpoint directory (results/checkpoints)
//!   FT2_RESUME=1           same as --resume: continue compatible
//!                          checkpoints bit-identically
//!   FT2_TRIAL_DEADLINE_MS  per-trial wall-clock watchdog (Hang/DUE)
//!   FT2_TRIAL_TOKEN_BUDGET per-trial generation-step watchdog
//!   FT2_RECOVERY_RETRIES   token-rollback retry budget per decode step
//!   FT2_STORM_THRESHOLD    corrections per step that escalate to a storm
//! ```

use ft2_harness::experiments::replay::ReplaySpec;
use ft2_harness::experiments::{self, ExperimentCtx};
use ft2_harness::{gate_passes, gate_table, lint, webserve, Gate, GATES};
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "table1", "table2", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ablations", "recovery",
    "persistent",
];

fn run_one(ctx: &ExperimentCtx, name: &str) -> bool {
    let t0 = Instant::now();
    println!("### {name} ###");
    match name {
        "table1" => {
            experiments::table1::run(ctx);
        }
        "table2" => {
            experiments::table2::run(ctx);
        }
        "fig2" => {
            experiments::fig02::run(ctx);
        }
        "fig3" => {
            experiments::fig03::run(ctx);
        }
        "fig4" => {
            experiments::fig04::run(ctx);
        }
        "fig6" => {
            experiments::fig06::run(ctx);
        }
        "fig7" => {
            experiments::fig07::run(ctx);
        }
        "fig8" => {
            experiments::fig08::run(ctx);
        }
        "fig9" => {
            experiments::fig09::run(ctx);
        }
        "fig10" => {
            experiments::fig10::run(ctx);
        }
        "fig11" => {
            experiments::fig11::run(ctx);
        }
        "fig12" => {
            experiments::fig12::run(ctx);
        }
        "fig13" => {
            experiments::fig13::run(ctx);
        }
        "fig14" => {
            experiments::fig14::run(ctx);
        }
        "fig15" => {
            experiments::fig15::run(ctx);
        }
        "fig16" => {
            experiments::fig16::run(ctx);
        }
        "ablations" => {
            experiments::ablations::run(ctx);
        }
        "recovery" => {
            experiments::recovery::run(ctx);
        }
        "persistent" => {
            experiments::persistent::run(ctx);
        }
        _ => return false,
    }
    eprintln!("### {name} done in {:.1?}\n", t0.elapsed());
    true
}

fn run_replay(args: &[String]) -> Result<(), String> {
    let triple = args
        .first()
        .ok_or("usage: ft2-repro replay <seed>/<input>/<trial> [options]")?;
    let mut spec = ReplaySpec::parse(triple)?;
    let mut rest = args[1..].iter();
    while let Some(key) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("option {key} needs a value"))?;
        spec.set(key, value)?;
    }
    let ctx = ExperimentCtx::new();
    experiments::replay::run(&ctx, &spec)
}

/// Parse a gate's options into `(smoke, web)`: `--smoke` on every gate,
/// `--web` on `serve` only. Anything else is a usage error (exit 2).
fn parse_gate_args(gate: &str, args: &[String]) -> Result<(bool, bool), String> {
    let (mut smoke, mut web) = (false, false);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--web" if gate == "serve" => web = true,
            other => return Err(format!("unknown {gate} option {other}")),
        }
    }
    Ok((smoke, web))
}

/// Run one gate; `Ok(false)` when a guarantee failed.
fn run_gate(gate: &str, run: Gate, args: &[String]) -> Result<bool, String> {
    let (smoke, web) = parse_gate_args(gate, args)?;
    let pool = ft2_parallel::WorkStealingPool::with_default_threads();
    if web {
        let config = webserve::WebServeConfig::from_env();
        // Runs until the process is stopped; the stop flag exists for
        // library callers (tests bound the loop instead).
        let stop = std::sync::atomic::AtomicBool::new(false);
        let stats = webserve::run(&pool, &config, &stop, |addr| {
            println!("listening on http://{addr}");
        })?;
        println!(
            "served {} (failed {}), {} live injects, identity {}",
            stats.served,
            stats.failed,
            stats.injects,
            if stats.identity_ok { "ok" } else { "VIOLATED" }
        );
        return Ok(stats.identity_ok);
    }
    let checks = run(&pool, smoke);
    gate_table(&format!("{gate} gate"), &checks).print();
    Ok(gate_passes(&checks))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: ft2-repro [--resume] <experiment>... | all");
        println!("       ft2-repro replay <seed>/<input>/<trial> [--model M] [--dataset D] [--scheme S] [--fault F] [--duration D] [--target T]");
        println!("       ft2-repro lint [--json] [--root PATH]");
        println!("         source lints + the protection-coverage proof; non-zero exit");
        println!("         on any finding, unprotected critical layer, unpriced outcome");
        println!("         or mishandled checkpoint version");
        println!("       ft2-repro shards [--smoke]");
        println!("         sharded-execution gate: N-shard token identity, shard-level");
        println!("         repair vs full restart, crash + degraded-mode serving;");
        println!("         knobs: FT2_SHARDS, FT2_SHARD_HEARTBEAT_MS");
        println!("       ft2-repro serve [--smoke] [--web]");
        println!("         continuous-batching serving gate: batch-vs-solo token identity");
        println!("         for batch sizes {{1, 4, 8}} and a per-request fault storm that");
        println!("         must heal by rollback with every request still identical;");
        println!("         --web serves live traffic behind an HTTP/SSE endpoint (embedded");
        println!("         viewer on GET /, event stream on GET /events, live fault");
        println!("         injection on POST /inject);");
        println!("         knobs: FT2_SERVE_MAX_BATCH, FT2_SERVE_QUEUE_DEPTH, FT2_WEB_ADDR,");
        println!("         FT2_WEB_MAX_CLIENTS");
        println!("       ft2-repro replicas [--smoke]");
        println!("         cross-replica failover gate: zero-token-loss bit-identical");
        println!("         crash handoff, breaker-driven quarantine under a one-replica");
        println!("         storm, and live golden-copy rebuild that beats a full restart;");
        println!("         knobs: FT2_REPLICAS, FT2_REPLICA_RETRY_BUDGET,");
        println!("         FT2_REPLICA_BACKOFF_MS, FT2_REPLICA_QUARANTINE_ERRS");
        println!("       the three gates print one pass/FAIL row per guarantee and exit");
        println!("       non-zero if any fails; throughput and latency are measured by");
        println!("       `bash benchmark/run.sh` (metric names in BENCHMARK.json)");
        println!("experiments: {}", EXPERIMENTS.join(" "));
        println!("sizing via env: FT2_INPUTS, FT2_TRIALS, FT2_SEED, FT2_QUICK=1");
        println!("resilience: --resume (or FT2_RESUME=1) resumes interrupted campaigns;");
        println!("  FT2_CHECKPOINT_EVERY, FT2_CHECKPOINT_DIR control checkpointing;");
        println!("  FT2_TRIAL_DEADLINE_MS, FT2_TRIAL_TOKEN_BUDGET arm the trial watchdog;");
        println!("  FT2_RECOVERY_RETRIES arms token-rollback recovery (FT2_STORM_THRESHOLD tunes it);");
        println!("  FT2_SCRUB_TILES_PER_STEP, FT2_RECOVERY_REPAIR=1 arm the integrity layer");
        return;
    }

    if args[0] == "replay" {
        if let Err(e) = run_replay(&args[1..]) {
            eprintln!("replay failed: {e}");
            std::process::exit(2);
        }
        return;
    }

    if let Some((gate, run)) = GATES.iter().find(|(name, _)| *name == args[0]) {
        match run_gate(gate, *run, &args[1..]) {
            Ok(true) => return,
            Ok(false) => {
                eprintln!("{gate} gate failed a guarantee — see the FAIL rows above");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("{gate} failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if args[0] == "lint" {
        match lint::LintArgs::parse(&args[1..]).and_then(|a| lint::run(&a)) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("lint failed: {e}");
                std::process::exit(2);
            }
        }
    }

    let resume_flag = args.iter().any(|a| a == "--resume");
    args.retain(|a| a != "--resume");

    let mut ctx = ExperimentCtx::new();
    ctx.resilience.resume |= resume_flag;
    println!(
        "sizing: {} inputs x {} trials per campaign (seed {:#x})\n",
        ctx.settings.inputs, ctx.settings.trials, ctx.settings.seed
    );
    if ctx.resilience.enabled() {
        println!(
            "checkpointing: every {} trials under {}{}\n",
            ctx.resilience.cadence(),
            ctx.resilience.checkpoint_dir.display(),
            if ctx.resilience.resume { " (resuming)" } else { "" }
        );
    }

    let list: Vec<&str> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    let t0 = Instant::now();
    for name in list {
        if !run_one(&ctx, name) {
            eprintln!("unknown experiment '{name}' — see --help");
            std::process::exit(2);
        }
    }
    eprintln!("all requested experiments finished in {:.1?}", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn gates_take_smoke_and_reject_everything_else() {
        for (gate, _) in GATES {
            assert_eq!(parse_gate_args(gate, &[]), Ok((false, false)));
            assert_eq!(parse_gate_args(gate, &args(&["--smoke"])), Ok((true, false)));
            for bad in [&["--json"][..], &["--out", "x"], &["--smoke", "--frobnicate"]] {
                let err = parse_gate_args(gate, &args(bad)).expect_err("must be rejected");
                let flag = bad.iter().find(|a| **a != "--smoke").unwrap();
                assert_eq!(err, format!("unknown {gate} option {flag}"));
            }
        }
        assert_eq!(parse_gate_args("serve", &args(&["--web"])), Ok((false, true)));
        assert!(parse_gate_args("shards", &args(&["--web"])).is_err());
        assert!(parse_gate_args("replicas", &args(&["--web"])).is_err());
    }

    #[test]
    fn bench_is_an_unknown_experiment() {
        assert!(GATES.iter().all(|(name, _)| *name != "bench"));
        assert!(!run_one(&ExperimentCtx::new(), "bench"));
    }
}
