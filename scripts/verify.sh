#!/usr/bin/env sh
# Tier-1 verification gate: the workspace must build and test fully offline
# against the committed lockfile — no registry, no network. CI runs exactly
# this script so the local gate and CI cannot drift apart.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release (offline, locked) =="
cargo build --release --workspace --offline --locked

echo "== cargo clippy -D warnings (offline, locked) =="
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== cargo test (offline, locked) =="
cargo test -q --workspace --offline --locked

echo "== layer-walk identity tests under the portable kernel (FT2_NO_SIMD=1) =="
# The run above exercised the identity tests that carry the one-walk design
# under the kernel this CPU selects (AVX2+FMA where present). The claim is
# about both kernels, so run them once more in child processes with the
# SIMD path disabled — and make sure the filters still match: `cargo test`
# passes on zero tests.
identity_no_simd() {
    want="$1"
    shift
    out="$(FT2_NO_SIMD=1 cargo test -q --offline --locked "$@" 2>&1)" || {
        echo "$out" >&2
        exit 1
    }
    echo "$out" | grep -q "test result: ok. $want passed" || {
        echo "verify: expected $want identity tests to run under FT2_NO_SIMD=1" >&2
        echo "$out" >&2
        exit 1
    }
}
identity_no_simd 1 -p ft2-model --test engine_invariants \
    joint_prefill_equals_incremental_prefill_bit_for_bit
identity_no_simd 3 -p ft2-serve --lib -- \
    prefill_into_arena_pages_equals_the_engine_cache \
    rebuild_restores_rows_bit_for_bit \
    batched_decode_is_bit_identical_to_the_engine

echo "== benchmark (its own tests, then all six workloads with the checker on) =="
# benchmark/ is a standalone package outside the workspace, so nothing above
# notices when a crate change breaks its build or its per-operation checker.
# The smoke run is ~10 s after the build; every workload must report a
# correct run with no failed operation.
bash benchmark/run.sh --test
SMOKE_TMP="$(mktemp)"
bash benchmark/run.sh --smoke > "$SMOKE_TMP"
for pat in '"correct": true' '| attempted [0-9]* failed 0 |'; do
    n="$(grep -c "$pat" "$SMOKE_TMP" || true)"
    [ "$n" -eq 6 ] || {
        echo "verify: benchmark smoke: $n of 6 workloads match '$pat'" >&2
        cat "$SMOKE_TMP" >&2
        exit 1
    }
done
rm -f "$SMOKE_TMP"

echo "== static analysis (source + concurrency lints + coverage + shutdown proofs) =="
# The in-tree analyser must pass on the real tree: zero lint findings, zero
# unprotected critical layers across all seven zoo configs, every outcome
# priced, every checkpoint version handled, no cycle in the
# lock-acquisition graph, and the no-execution shutdown proof intact
# (checked — the vacuous unchecked verdict must not slip through). Grep
# the schema keys like the bench smoke does so the JSON contract cannot
# silently drift.
LINT_TMP="$(mktemp)"
./target/release/ft2-repro lint --json > "$LINT_TMP"
for key in '"schema": 1' '"ok": true' '"finding_count": 0' \
           '"unprotected_critical_layers": 0' '"over_protected_layers": 0' \
           '"unpriced_outcomes": 0' '"checkpoint_versions_ok": true' \
           '"lock_cycles": 0' '"shutdown_checked": true' \
           '"shutdown_ok": true'; do
    grep -q "$key" "$LINT_TMP" || {
        echo "verify: lint JSON is missing $key" >&2
        cat "$LINT_TMP" >&2
        exit 1
    }
done
rm -f "$LINT_TMP"
# And the gate must actually bite: the seeded-violation fixture tree has
# one violation per lint class and must exit non-zero.
if ./target/release/ft2-repro lint --root crates/analyze/tests/fixtures/bad_tree > /dev/null; then
    echo "verify: lint accepted the seeded-violation fixture tree" >&2
    exit 1
fi

echo "== persistent-fault smoke campaign =="
# A tiny duration x target x defence sweep through the release binary:
# exercises the weight scrubber, KV guard, and repair-and-retry rung
# end-to-end exactly as a user would invoke them.
FT2_INPUTS=2 FT2_TRIALS=3 ./target/release/ft2-repro persistent

echo "== bench smoke (schema-stable JSON baseline) =="
# Quick-sized run of the perf baseline emitter: the subcommand must work
# end-to-end and the JSON schema the perf gate greps must not drift.
BENCH_TMP="$(mktemp -d)/BENCH_decode.json"
FT2_QUICK=1 ./target/release/ft2-repro bench --json --out "$BENCH_TMP"
for key in '"schema": 1' '"prefill_tok_s"' '"decode_tok_s"' '"campaign_trials_s"'; do
    grep -q "$key" "$BENCH_TMP" || {
        echo "verify: bench JSON is missing $key" >&2
        exit 1
    }
done
# Decode-throughput non-regression: the fresh quick run must stay within
# 2x of the committed BENCH_decode.json baseline. Quick sizing is noisy
# (historically ~90% of the full run on the same box), so the 50% floor
# only bites on a genuine hot-path regression, not jitter.
awk -F': ' '
    /"decode_tok_s"/ { gsub(/,/, ""); v[n++] = $2 }
    END {
        if (n != 2) { print "verify: could not read decode_tok_s" > "/dev/stderr"; exit 1 }
        if (v[1] * 2 < v[0]) {
            printf "verify: decode throughput regressed: %s tok/s vs committed baseline %s\n", v[1], v[0] > "/dev/stderr"
            exit 1
        }
    }' BENCH_decode.json "$BENCH_TMP"
rm -f "$BENCH_TMP"

echo "== shards smoke (fault-isolation guarantees + JSON baseline) =="
# 2-shard smoke sweep through the release binary: proves N-shard token
# identity, repair-beats-restart, and crash + degraded-mode serving, and
# pins the BENCH_shards.json schema the availability gate greps. The
# subcommand itself exits non-zero if any guarantee fails.
SHARDS_TMP="$(mktemp -d)/BENCH_shards.json"
FT2_QUICK=1 ./target/release/ft2-repro shards --smoke --json --out "$SHARDS_TMP"
for key in '"schema": 1' '"token_identical": true' '"repair_outcome": "Repaired"' \
           '"repair_beats_restart": true' '"degrade_outcome": "Degraded"' \
           '"ok": true'; do
    grep -q "$key" "$SHARDS_TMP" || {
        echo "verify: shards JSON is missing $key" >&2
        cat "$SHARDS_TMP" >&2
        exit 1
    }
done
rm -f "$SHARDS_TMP"

echo "== serve smoke (per-request fault isolation + JSON baseline) =="
# CI-sized pass through the continuous-batching serving gate: batch-vs-solo
# token identity at every swept batch size, and a transient storm confined
# to one lane of a batch-4 run that must heal by rollback with every
# request still token-identical. Pins the BENCH_serve.json schema. The
# subcommand itself exits non-zero if any guarantee fails.
SERVE_TMP="$(mktemp -d)/BENCH_serve.json"
./target/release/ft2-repro serve --smoke --json --out "$SERVE_TMP"
for key in '"schema": 2' '"requests_s"' '"ttft_ms"' '"p50_token_ms"' '"p99_token_ms"' \
           '"identity_ok": true' '"storm_outcome": "Completed"' \
           '"clean_p99_inflation"' '"storm_identity_ok": true' '"ok": true'; do
    grep -q "$key" "$SERVE_TMP" || {
        echo "verify: serve JSON is missing $key" >&2
        cat "$SERVE_TMP" >&2
        exit 1
    }
done
rm -f "$SERVE_TMP"

echo "== replicas smoke (cross-replica failover + JSON baseline) =="
# CI-sized pass through the replication gate: a replica crash mid-batch
# must hand its requests over with zero accepted-token loss and
# bit-identical continuations, a persistent one-replica storm must trip
# the breaker into quarantine with clean requests unaffected, and the
# quarantined replica must rebuild from the golden copy and rejoin faster
# than a full restart. Pins the BENCH_replicas.json schema. The
# subcommand itself exits non-zero if any guarantee fails.
REPLICAS_TMP="$(mktemp -d)/BENCH_replicas.json"
./target/release/ft2-repro replicas --smoke --json --out "$REPLICAS_TMP"
for key in '"schema": 2' '"crash_identity_ok": true' '"handoff_tokens"' \
           '"crash_failed_over"' '"storm_quarantined": true' \
           '"storm_identity_ok": true' '"ttft_ms"' '"clean_p99_inflation"' \
           '"rebuild_beats_restart": true' '"rejoin_ok": true' \
           '"ok": true'; do
    grep -q "$key" "$REPLICAS_TMP" || {
        echo "verify: replicas JSON is missing $key" >&2
        cat "$REPLICAS_TMP" >&2
        exit 1
    }
done
rm -f "$REPLICAS_TMP"

echo "== serve --web smoke (live SSE observability + injection) =="
# Boot the live-observability endpoint headless on an ephemeral port:
# the embedded viewer must serve, the SSE stream must carry the
# documented event JSON (verdict + sparse block_hits per token), and
# POST /inject must accept a live fault spec and echo it on the stream.
WEB_LOG="$(mktemp)"
SSE_TMP="$(mktemp)"
FT2_WEB_ADDR=127.0.0.1:0 FT2_QUICK=1 ./target/release/ft2-repro serve --web > "$WEB_LOG" 2>&1 &
WEB_PID=$!
WEB_URL=""
i=0
while [ $i -lt 150 ]; do
    WEB_URL="$(sed -n 's#^listening on \(http://[^ ]*\)$#\1#p' "$WEB_LOG")"
    [ -n "$WEB_URL" ] && break
    i=$((i + 1))
    sleep 0.2
done
if [ -z "$WEB_URL" ]; then
    echo "verify: serve --web never reported its address" >&2
    cat "$WEB_LOG" >&2
    kill "$WEB_PID" 2>/dev/null || true
    exit 1
fi
web_fail() {
    echo "verify: $1" >&2
    cat "$WEB_LOG" >&2
    kill "$WEB_PID" 2>/dev/null || true
    exit 1
}
curl -s "$WEB_URL/" | grep -q "ft2 live token stream" \
    || web_fail "serve --web viewer page missing"
# Attach the SSE capture first so the inject echo is observed, then fire
# a live block-2 bit flip and let the stream run a few seconds.
curl -sN -m 6 "$WEB_URL/events" > "$SSE_TMP" 2>/dev/null &
SSE_PID=$!
sleep 1
curl -s -d 'kind=flip&block=2' "$WEB_URL/inject" \
    | grep -q '"ok":true,"what":"flip block 2"' \
    || web_fail "POST /inject did not accept the fault spec"
wait "$SSE_PID" 2>/dev/null || true
for pat in '"ev":"token"' '"verdict":"' '"block_hits":' '"t_ns":' \
           '"ev":"inject","replica":0,"what":"flip block 2"'; do
    grep -q "$pat" "$SSE_TMP" || {
        head -c 2000 "$SSE_TMP" >&2
        web_fail "SSE stream is missing $pat"
    }
done
kill "$WEB_PID" 2>/dev/null || true
wait "$WEB_PID" 2>/dev/null || true
rm -f "$WEB_LOG" "$SSE_TMP"

echo "verify: OK"
