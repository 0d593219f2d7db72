//! The FT2 benchmark: six seeded workloads, end-to-end metrics measured with
//! tracing off, and per-layer attribution from a traced run plus
//! micro-probes — all timed from outside the crates under test.
//!
//! `ft2-benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints one `name value unit` line per metric, then one JSON
//! result line. `run.sh` builds and wraps it (README.md).

mod campaign;
mod common;
mod metrics;
mod probes;
mod serve;
mod sharded;
mod solo;
mod stats;
mod taps;
mod trace;
mod workload;

use common::{peak_rss_mb, Fixture, RunOutput, Timing, MIN_P99_SAMPLES};
use metrics::{
    result_line, table_lines, Values, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Cold set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Caches warm this long before the timed window opens.
const WARM_S: f64 = 1.0;
/// `--smoke`: one set-up, a short warm-up and window; all six workloads
/// with the checker on fit in ten seconds.
const SMOKE_S: f64 = 0.5;
const SMOKE_WARM_S: f64 = 0.1;
/// Share of `--seconds` a traced run spends in each of its two windows
/// (tracer off, tracer on); the micro-probes take the rest.
const TRACE_WINDOW_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ft2-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
         ft2-benchmark --manifest | --compare A.jsonl B.jsonl",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            // `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if args.smoke && !seconds_given {
        args.seconds = SMOKE_S;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn build(workload: &str, seed: u64) -> Box<dyn Fixture> {
    match workload {
        "solo_decode" => Box::new(solo::setup(seed)),
        "sharded_decode" => Box::new(sharded::setup(seed)),
        "serve_decode" => Box::new(serve::setup(serve::Kind::Decode, seed)),
        "serve_prefill" => Box::new(serve::setup(serve::Kind::Prefill, seed)),
        "serve_storm" => Box::new(serve::setup(serve::Kind::Storm, seed)),
        "campaign" => Box::new(campaign::setup(seed)),
        other => unreachable!("workload {other} passed the argument check"),
    }
}

/// Where the span file goes: `$FT2_BENCH_OUT` (run.sh points it at
/// `benchmark/out`), else `benchmark/out` under the working directory.
fn out_dir() -> PathBuf {
    std::env::var_os("FT2_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// SIMD path, thread counts and compiler: what a number depends on besides
/// the code.
fn fingerprint() -> String {
    #[cfg(target_arch = "x86_64")]
    let wide =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    // The rule `ft2-tensor` dispatches its GEMM kernel by.
    let simd = match (std::env::var_os("FT2_NO_SIMD").is_some(), wide) {
        (true, _) => "scalar(FT2_NO_SIMD)",
        (false, true) => "avx2+fma",
        (false, false) => "scalar",
    };
    format!(
        "nproc={} pool_threads={} simd={} rustc={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        common::pool_threads(),
        simd,
        std::env::var("FT2_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
    )
}

fn finish(
    args: &Args,
    out: RunOutput,
    table: &[metrics::MetricDef],
    values: Values,
    valid: bool,
) -> ExitCode {
    for p in &out.problems {
        println!("problem: {p}");
    }
    print!("{}", table_lines(table, &values));
    let unknown = values.unknown(table);
    assert!(
        unknown.is_empty(),
        "metrics missing from the table: {unknown:?}"
    );
    println!(
        "workload {} seed {} seconds {} trace {} | attempted {} failed {} | valid {} | {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        out.attempted,
        out.failed,
        valid,
        fingerprint()
    );
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, table, &values)
    );
    ExitCode::SUCCESS
}

fn timing(args: &Args, window_s: f64) -> Timing {
    Timing {
        warm_s: if args.smoke { SMOKE_WARM_S } else { WARM_S },
        window_s,
    }
}

/// The timed run: tracing off, `SETUPS` cold set-ups, one window.
fn timed(args: &Args) -> ExitCode {
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut fixture = None;
    for _ in 0..setups {
        drop(fixture.take()); // tear down before the next cold set-up
        let t = Instant::now();
        fixture = Some(build(&args.workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut fixture = fixture.expect("at least one set-up");
    let mut out = fixture.run(timing(args, args.seconds), &mut Tracer::off());
    if !fixture.base().weights_intact() {
        out.fail(format!(
            "{}: model weights changed during the run",
            args.workload
        ));
    }
    let mut values = std::mem::take(&mut out.e2e);
    values.set("setup_s", stats::median(&mut setup_s));
    values.set("peak_rss_mb", peak_rss_mb());
    // A p99 needs ten samples beyond it.
    let samples = out.layer.get("samples.itl");
    println!(
        "no bound: ttft_ms_p99 {:.6} ms on {} samples; itl_ms_p50 {:.6} ms, itl_ms_p99 {:.6} ms on {} samples",
        out.layer.get("ttft_ms_p99"),
        out.layer.get("samples.ttft"),
        out.layer.get("itl_ms_p50"),
        out.layer.get("itl_ms_p99"),
        samples
    );
    let valid = args.smoke || samples >= MIN_P99_SAMPLES as f64;
    if !valid {
        eprintln!(
            "warning: {}: a p99 rests on {samples} samples (< {MIN_P99_SAMPLES}); lengthen the run",
            args.workload
        );
    }
    finish(args, out, END_TO_END, values, valid)
}

/// The traced run: the same window twice — tracer off, then on — and the
/// micro-probes. Prints the per-layer metrics and writes the spans.
fn traced(args: &Args) -> ExitCode {
    let t = Instant::now();
    let mut fixture = build(&args.workload, args.seed);
    let setup_once_s = t.elapsed().as_secs_f64();
    let timing = timing(args, args.seconds * TRACE_WINDOW_SHARE);
    let plain = fixture.run(timing, &mut Tracer::off());
    let mut tracer = Tracer::on(Instant::now());
    let mut out = fixture.run(timing, &mut tracer);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    out.problems.extend(plain.problems);

    let mut values = std::mem::take(&mut out.layer);
    let (off, on) = (plain.e2e.get("tok_s"), out.e2e.get("tok_s"));
    values.set("trace.overhead_pct", (off / on.max(1e-9) - 1.0) * 100.0);
    let probe_s = args.seconds * (1.0 - 2.0 * TRACE_WINDOW_SHARE);
    values.merge(probes::run(fixture.base(), probe_s));
    // What the scheduler adds around `batch_step` (row maps, ladder, seals,
    // events) — comparable only when the workload kept all 8 lanes busy.
    if values.get("serve.step.batch_mean") > 7.5 {
        let overhead = values.get("serve.step.decode_us") - values.get("serve.batch_step.us_b8");
        values.set("serve.sched.overhead_us", overhead);
    }

    let path = out_dir().join(format!("trace-{}.json", args.workload));
    match tracer.write_json(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
    println!("set-up (once): {setup_once_s:.4} s");
    println!(
        "{:<40} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<40} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    finish(args, out, PER_LAYER, values, true)
}

/// `--compare A B`: two files of result lines (one per workload, in order);
/// prints both values and their relative difference against each bound.
fn compare(a: &str, b: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut within = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, la), lb) in WORKLOADS.iter().zip(a.lines()).zip(b.lines()) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (
                metrics::read_metric(la, m.name),
                metrics::read_metric(lb, m.name),
            ) else {
                eprintln!("{}: {} missing from a result line", w.name, m.name);
                return ExitCode::FAILURE;
            };
            let diff = (y - x).abs() / x.abs().max(1e-12);
            let ok = diff <= m.bound;
            within &= ok;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
                w.name,
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "OUTSIDE" }
            );
        }
    }
    println!("{}", fingerprint());
    if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(|s| s.as_str()) {
        Some("--manifest") => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Some("--compare") if argv.len() == 3 => return compare(&argv[1], &argv[2]),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        traced(&args)
    } else {
        timed(&args)
    }
}
