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
//! ft2-repro bench [--json] [--out PATH]
//!   measures prefill tok/s, decode tok/s and unprotected campaign trials/s
//!   on fixed fixtures; --json writes the schema-stable
//!   BENCH_decode.json baseline CI gates perf regressions against.
//!   Sizing: FT2_BENCH_REPS, FT2_BENCH_GEN, FT2_BENCH_TRIALS, FT2_QUICK=1.
//!
//! ft2-repro shards [--json] [--out PATH] [--smoke]
//!   sharded-execution sweep: for each swept zoo config and shard count,
//!   proves fault-free N-shard decode is token-identical to 1-shard,
//!   shard-level repair clears a persistent shard fault cheaper than a
//!   full restart, and a one-shard crash with degrade keeps serving
//!   (reported Outcome::Degraded, never silent). --json writes the
//!   schema-stable BENCH_shards.json baseline. Knobs: FT2_SHARDS,
//!   FT2_SHARD_DEGRADE=1, FT2_SHARD_HEARTBEAT_MS, FT2_QUICK=1.
//!
//! ft2-repro serve [--json] [--out PATH] [--smoke] [--web]
//!   continuous-batching serving gate: requests/s, accepted tok/s, TTFT
//!   and decode-only p50/p99 token latency for batch sizes {1, 4, 8},
//!   batch-N vs solo token identity on fault-free traffic, and a
//!   per-request fault storm (one lane of a batch-4 run) that must heal
//!   by rollback while every clean request stays token-identical —
//!   clean-request p99 inflation is reported. --json writes the
//!   schema-stable BENCH_serve.json baseline. --web instead serves
//!   continuous live traffic behind a zero-dependency HTTP/SSE endpoint:
//!   GET / is an embedded viewer (verdict-colored tokens, per-block
//!   heatmap, recovery markers, replica health), GET /events streams the
//!   scheduler's decisions as Server-Sent Events, and POST /inject takes
//!   live fault specs (kind=flip&block=2, kind=crash&replica=0, ...).
//!   Knobs: FT2_SERVE_MAX_BATCH, FT2_SERVE_QUEUE_DEPTH, FT2_BENCH_GEN,
//!   FT2_WEB_ADDR, FT2_WEB_MAX_CLIENTS, FT2_QUICK=1.
//!
//! ft2-repro replicas [--json] [--out PATH] [--smoke]
//!   cross-replica failover gate: a replica crash mid-batch hands its
//!   in-flight requests over with zero accepted-token loss and
//!   bit-identical continuations (typed FailedOver outcomes), a
//!   persistent one-replica activation storm trips the breaker into
//!   quarantine while clean requests stay identical (clean-replica p99
//!   inflation reported), and the quarantined replica rebuilds its
//!   weights live from the golden copy and rejoins faster than a full
//!   restart. --json writes the schema-stable BENCH_replicas.json
//!   baseline. Knobs: FT2_REPLICAS, FT2_REPLICA_RETRY_BUDGET,
//!   FT2_REPLICA_BACKOFF_MS, FT2_REPLICA_QUARANTINE_ERRS, FT2_QUICK=1.
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
use ft2_harness::{
    bench, lint, replicas, serve, shards, webserve, BENCH_BASELINE_PATH,
    REPLICAS_BASELINE_PATH, SERVE_BASELINE_PATH, SHARDS_BASELINE_PATH,
};
use std::path::PathBuf;
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

fn run_bench(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut out = PathBuf::from(BENCH_BASELINE_PATH);
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        match key.as_str() {
            "--json" => json = true,
            "--out" => {
                out = PathBuf::from(
                    rest.next().ok_or("option --out needs a value")?,
                );
            }
            other => return Err(format!("unknown bench option {other}")),
        }
    }
    let pool = ft2_parallel::WorkStealingPool::with_default_threads();
    let t0 = Instant::now();
    let report = bench::run(&pool);
    eprintln!("### bench done in {:.1?}", t0.elapsed());
    println!("{}", report.summary());
    if json {
        bench::write_json(&report, &out)?;
        println!("wrote {}", out.display());
    }
    Ok(())
}

fn run_shards(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut smoke = false;
    let mut out = PathBuf::from(SHARDS_BASELINE_PATH);
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        match key.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--out" => {
                out = PathBuf::from(
                    rest.next().ok_or("option --out needs a value")?,
                );
            }
            other => return Err(format!("unknown shards option {other}")),
        }
    }
    let pool = ft2_parallel::WorkStealingPool::with_default_threads();
    let t0 = Instant::now();
    let report = shards::run(&pool, smoke);
    eprintln!("### shards done in {:.1?}", t0.elapsed());
    println!("{}", report.summary());
    if json {
        shards::write_json(&report, &out)?;
        println!("wrote {}", out.display());
    }
    Ok(report.ok())
}

fn run_serve(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut smoke = false;
    let mut web = false;
    let mut out = PathBuf::from(SERVE_BASELINE_PATH);
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        match key.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--web" => web = true,
            "--out" => {
                out = PathBuf::from(
                    rest.next().ok_or("option --out needs a value")?,
                );
            }
            other => return Err(format!("unknown serve option {other}")),
        }
    }
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
    let t0 = Instant::now();
    let report = serve::run(&pool, smoke);
    eprintln!("### serve done in {:.1?}", t0.elapsed());
    println!("{}", report.summary());
    if json {
        serve::write_json(&report, &out)?;
        println!("wrote {}", out.display());
    }
    Ok(report.ok())
}

fn run_replicas(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut smoke = false;
    let mut out = PathBuf::from(REPLICAS_BASELINE_PATH);
    let mut rest = args.iter();
    while let Some(key) = rest.next() {
        match key.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--out" => {
                out = PathBuf::from(
                    rest.next().ok_or("option --out needs a value")?,
                );
            }
            other => return Err(format!("unknown replicas option {other}")),
        }
    }
    let pool = ft2_parallel::WorkStealingPool::with_default_threads();
    let t0 = Instant::now();
    let report = replicas::run(&pool, smoke);
    eprintln!("### replicas done in {:.1?}", t0.elapsed());
    println!("{}", report.summary());
    if json {
        replicas::write_json(&report, &out)?;
        println!("wrote {}", out.display());
    }
    Ok(report.ok())
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
        println!("       ft2-repro bench [--json] [--out PATH]");
        println!("         measures prefill/decode tok/s and campaign trials/s on the");
        println!("         fixed fixtures; --json writes a schema-stable baseline");
        println!("         ({BENCH_BASELINE_PATH} by default) for perf-regression gating;");
        println!("         sizing via FT2_BENCH_REPS, FT2_BENCH_GEN, FT2_BENCH_TRIALS, FT2_QUICK=1");
        println!("       ft2-repro shards [--json] [--out PATH] [--smoke]");
        println!("         sharded-execution sweep: N-shard token identity, shard-level");
        println!("         repair vs full restart, crash + degraded-mode serving; --json");
        println!("         writes the schema-stable {SHARDS_BASELINE_PATH} baseline;");
        println!("         knobs: FT2_SHARDS, FT2_SHARD_DEGRADE=1, FT2_SHARD_HEARTBEAT_MS");
        println!("       ft2-repro serve [--json] [--out PATH] [--smoke] [--web]");
        println!("         continuous-batching serving gate: requests/s, TTFT and decode-only");
        println!("         p50/p99 token latency for batch sizes {{1, 4, 8}}, batch-vs-solo");
        println!("         token identity, and clean-request p99 inflation under a");
        println!("         per-request fault storm; --json writes the schema-stable");
        println!("         {SERVE_BASELINE_PATH} baseline; --web serves live traffic behind");
        println!("         an HTTP/SSE endpoint (embedded viewer on GET /, event stream on");
        println!("         GET /events, live fault injection on POST /inject);");
        println!("         knobs: FT2_SERVE_MAX_BATCH, FT2_SERVE_QUEUE_DEPTH, FT2_BENCH_GEN,");
        println!("         FT2_WEB_ADDR, FT2_WEB_MAX_CLIENTS");
        println!("       ft2-repro replicas [--json] [--out PATH] [--smoke]");
        println!("         cross-replica failover gate: zero-token-loss bit-identical");
        println!("         crash handoff, breaker-driven quarantine under a one-replica");
        println!("         storm, and live golden-copy rebuild that beats a full restart;");
        println!("         --json writes the schema-stable {REPLICAS_BASELINE_PATH} baseline;");
        println!("         knobs: FT2_REPLICAS, FT2_REPLICA_RETRY_BUDGET,");
        println!("         FT2_REPLICA_BACKOFF_MS, FT2_REPLICA_QUARANTINE_ERRS");
        println!("experiments: {}", EXPERIMENTS.join(" "));
        println!("sizing via env: FT2_INPUTS, FT2_TRIALS, FT2_SEED, FT2_QUICK=1");
        println!("resilience: --resume (or FT2_RESUME=1) resumes interrupted campaigns;");
        println!("  FT2_CHECKPOINT_EVERY, FT2_CHECKPOINT_DIR control checkpointing;");
        println!("  FT2_TRIAL_DEADLINE_MS, FT2_TRIAL_TOKEN_BUDGET arm the trial watchdog;");
        println!("  FT2_RECOVERY_RETRIES arms token-rollback recovery (FT2_STORM_THRESHOLD tunes it);");
        println!("  FT2_SCRUB_TILES_PER_STEP, FT2_KV_GUARD=1, FT2_RECOVERY_REPAIR=1 arm the integrity layer");
        return;
    }

    if args[0] == "replay" {
        if let Err(e) = run_replay(&args[1..]) {
            eprintln!("replay failed: {e}");
            std::process::exit(2);
        }
        return;
    }

    if args[0] == "bench" {
        if let Err(e) = run_bench(&args[1..]) {
            eprintln!("bench failed: {e}");
            std::process::exit(2);
        }
        return;
    }

    if args[0] == "shards" {
        match run_shards(&args[1..]) {
            Ok(true) => return,
            Ok(false) => {
                eprintln!("shards sweep failed a guarantee — see the summary above");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("shards failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if args[0] == "serve" {
        match run_serve(&args[1..]) {
            Ok(true) => return,
            Ok(false) => {
                eprintln!("serving gate failed a guarantee — see the summary above");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if args[0] == "replicas" {
        match run_replicas(&args[1..]) {
            Ok(true) => return,
            Ok(false) => {
                eprintln!("replicas gate failed a guarantee — see the summary above");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("replicas failed: {e}");
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
