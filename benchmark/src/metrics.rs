//! The metric and workload tables — the single source `BENCHMARK.json` is
//! generated from (`--manifest`) — and the result line the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const RUN_SECONDS: u64 = 15;
pub const DEFAULT_SEED: u64 = 20250711;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "solo_decode",
        why: "one FT2-protected 128-token generation at a time with a bare twin: the engine alone (tensor, model, numeric, core::protect); serve, parallel and fault idle",
    },
    WorkloadDef {
        name: "sharded_decode",
        why: "the same prompts through the 2-shard executor: pool dispatch and the f64 seam carry it, both idle in solo_decode",
    },
    WorkloadDef {
        name: "serve_decode",
        why: "closed loop of 8 clients on 8 lanes with desynchronised long outputs: batch_step does the work, admission is rare, prefill cost barely shows",
    },
    WorkloadDef {
        name: "serve_prefill",
        why: "open-loop Poisson arrivals, 3:1 long-prompt to long-output mix: admit-time prefill dominates, a queue forms and long prefills stall decoding lanes",
    },
    WorkloadDef {
        name: "serve_storm",
        why: "serve_decode with every fourth request faulted (rollback, KV rebuild, eviction): the recovery ladder beside clean traffic",
    },
    WorkloadDef {
        name: "campaign",
        why: "rounds of a fixed-seed FT2-protected fault campaign on the pool: thousands of short faulty generations; fault and parallel carry it, serve idle",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees, on every workload (README, "End-to-end
/// metrics", says what an operation and a token are on each). The bounds
/// are three times the widest run-to-run spread seen on the reference box,
/// capped at the manifest's 0.25 (README, "Bounds").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("tok_s", "tokens/s", "higher", 0.25),
    e2e("ttft_ms_p50", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Single-layer metrics from the traced run and the micro-probes. A metric
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end figures without a bound: defined on one workload only, or
    // (the token gaps and the TTFT tail) swinging more between runs of the
    // same code on the reference box than the manifest's largest bound
    // allows (README, "Bounds").
    layer("trials_s", "trials/s", "higher"),
    layer("ttft_ms_p99", "ms", "lower"),
    layer("itl_ms_p50", "ms", "lower"),
    layer("itl_ms_p99", "ms", "lower"),
    layer("slo_share", "share", "higher"),
    layer("recovery_gap_ms_p50", "ms", "lower"),
    layer("samples.ttft", "count", "higher"),
    layer("samples.itl", "count", "higher"),
    // numeric
    layer("numeric.f16.roundtrip_ns_per_elem", "ns/elem", "lower"),
    layer("numeric.crc64.gb_s", "GB/s", "higher"),
    // tensor
    layer("tensor.gemm.decode_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm.batch8_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm.prefill_gflops", "GFLOP/s", "higher"),
    layer("tensor.peak_gflops", "GFLOP/s", "higher"),
    layer("tensor.gemm.flop_per_byte", "flop/byte", "higher"),
    layer("tensor.ops.softmax_ns_per_row", "ns/row", "lower"),
    layer("tensor.ops.norm_ns_per_row", "ns/row", "lower"),
    layer("tensor.seam.reduce_ns_per_elem", "ns/elem", "lower"),
    // parallel
    layer("parallel.pool.dispatch_us", "us", "lower"),
    layer("parallel.pool.efficiency", "ratio", "higher"),
    // model
    layer("model.build_ms", "ms", "lower"),
    layer("model.prefill.us_per_token_p16", "us/token", "lower"),
    layer("model.prefill.us_per_token_p112", "us/token", "lower"),
    layer("model.decode.us_per_token_ctx32", "us/token", "lower"),
    layer("model.decode.us_per_token_ctx128", "us/token", "lower"),
    layer("model.norm.us", "us", "lower"),
    layer("model.attn.us", "us", "lower"),
    layer("model.mlp.us", "us", "lower"),
    layer("model.lm_head.us", "us", "lower"),
    layer("model.step.parts_sum_ratio", "ratio", "lower"),
    layer("model.kv.bytes_per_token", "bytes/token", "lower"),
    layer("model.shard.step_us", "us", "lower"),
    layer("model.shard.vs_dense_ratio", "ratio", "lower"),
    layer("model.shard.teardown_ms", "ms", "lower"),
    layer("model.shard.flaky", "count", "lower"),
    // core
    layer("core.protect.clamp_ns_per_elem", "ns/elem", "lower"),
    layer("core.protect.overhead_pct", "%", "lower"),
    layer("core.protect.overhead_pct_q1", "%", "lower"),
    layer("core.protect.overhead_pct_q3", "%", "lower"),
    layer("core.protect.profile_overhead_pct", "%", "lower"),
    layer("core.protect.false_clamps", "count", "lower"),
    layer("core.integrity.checksum_build_ms", "ms", "lower"),
    layer("core.integrity.scrub_tile_us", "us", "lower"),
    // fault
    layer("fault.reference_ms", "ms", "lower"),
    layer("fault.trial_us_p50", "us", "lower"),
    layer("fault.trial_us_p99", "us", "lower"),
    layer("fault.inject.overhead_pct", "%", "lower"),
    layer("fault.tally.masked", "count", "higher"),
    layer("fault.tally.sdc", "count", "lower"),
    layer("fault.tally.due", "count", "lower"),
    layer("fault.sdc_rate_ft2", "share", "lower"),
    layer("fault.sdc_rate_unprotected", "share", "lower"),
    // serve
    layer("serve.submit_us", "us", "lower"),
    layer("serve.queue.wait_ms_p50", "ms", "lower"),
    layer("serve.queue.wait_ms_p99", "ms", "lower"),
    layer("serve.step.admit_ms_per_req", "ms", "lower"),
    layer("serve.step.admit_share", "share", "lower"),
    layer("serve.arena.copy_us_per_pos", "us", "lower"),
    layer("serve.step.decode_us", "us", "lower"),
    layer("serve.step.lane_token_us", "us", "lower"),
    layer("serve.step.batch_mean", "count", "higher"),
    layer("serve.batch_step.us_b1", "us", "lower"),
    layer("serve.batch_step.us_b8", "us", "lower"),
    layer("serve.sched.overhead_us", "us", "lower"),
    layer("serve.vs_engine_ratio", "ratio", "lower"),
    layer("serve.arena.pages_peak", "pages", "lower"),
    layer("serve.arena.occupancy", "share", "higher"),
    layer("serve.ladder.rollbacks", "count", "lower"),
    layer("serve.ladder.repairs", "count", "lower"),
    layer("serve.ladder.evictions", "count", "lower"),
    layer("serve.ladder.kv_rebuilt", "count", "lower"),
    layer("serve.ladder.rebuild_step_ms", "ms", "lower"),
    layer("serve.server.hop_us", "us", "lower"),
    layer("serve.event.emit_ns", "ns", "lower"),
    // bench
    layer("gen.late_ms_p99", "ms", "lower"),
    layer("gen.backlog_end", "count", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Named values of one run.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: Values) {
        self.0.extend(other.0);
    }

    /// Names set here that `table` does not list — a typo in a workload.
    pub fn unknown(&self, table: &[MetricDef]) -> Vec<&'static str> {
        self.0
            .keys()
            .filter(|k| !table.iter().any(|m| m.name == **k))
            .copied()
            .collect()
    }
}

/// Shortest decimal that round-trips: every digit as measured.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with one entry per metric of `table`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[MetricDef],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in table.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(values.get(m.name)),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// One `name value unit` line per metric of `table`, for people.
pub fn table_lines(table: &[MetricDef], values: &Values) -> String {
    let mut s = String::new();
    for m in table {
        let _ = writeln!(s, "{:<40} {:>16.6} {}", m.name, values.get(m.name), m.unit);
    }
    s
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let metric = |m: &MetricDef| {
        format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        )
    };
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| format!("    {{{}, \"bound\": {}}}", metric(m), m.bound))
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| format!("    {{{}}}", metric(m)))
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

/// Pull `"name": {"value": X` out of a result line written by
/// [`result_line`] (the self-check reads its own output back).
pub fn read_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        // The repository root is one level up; a checkout that holds only
        // the benchmark has no manifest to compare.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(path) {
            assert_eq!(
                committed,
                manifest(),
                "regenerate with `run.sh --manifest > BENCHMARK.json`"
            );
        }
    }

    #[test]
    fn result_line_round_trips_through_read_metric() {
        let mut v = Values::default();
        v.set("tok_s", 12345.678901234);
        v.set("setup_s", 0.25);
        let line = result_line(true, 10, 0, END_TO_END, &v);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(read_metric(&line, "tok_s"), Some(12345.678901234));
        assert_eq!(read_metric(&line, "setup_s"), Some(0.25));
        assert_eq!(read_metric(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(read_metric(&line, "absent"), None);
        assert!(v.unknown(END_TO_END).is_empty());
        v.set("typo", 1.0);
        assert_eq!(v.unknown(END_TO_END), vec!["typo"]);
    }
}
