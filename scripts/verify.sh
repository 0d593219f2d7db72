#!/usr/bin/env sh
# Tier-1 verification gate: the workspace must build and test fully offline
# against the committed lockfile — no registry, no network. CI runs exactly
# this script so the local gate and CI cannot drift apart.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check (the workspace; benchmark/ is its own) =="
cargo fmt --all --check

echo "== cargo build --release (offline, locked) =="
cargo build --release --workspace --offline --locked

echo "== cargo clippy -D warnings (offline, locked) =="
# Besides clippy's defaults this enforces the workspace's own source rules:
# documented `unsafe` blocks (Cargo.toml) and the disallowed methods and
# types of clippy.toml, crates/core/clippy.toml and crates/fault/clippy.toml.
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
identity_no_simd 6 -p ft2-serve --lib -- \
    prefill_into_arena_pages_equals_the_engine_cache \
    admission_prefill_on_the_pool_equals_the_engine_cache \
    split_linear_rows_equal_forward_into_row_by_row \
    rebuild_restores_rows_bit_for_bit \
    batched_decode_is_bit_identical_to_the_engine \
    batch_results_do_not_depend_on_thread_count
# FT2 across the fan-out: protected tokens, stats and step reports equal at
# 1, 2 and 4 shards (the root package's test, where ft2-core is in reach).
identity_no_simd 1 -p ft2 --test shard_recovery \
    protected_generation_is_shard_count_invariant

echo "== ft2-parallel integration tests, optimised build =="
# The run above built them unoptimised. What the pool's handoff tests race
# against (a spin budget of tens of microseconds, a two-instruction window)
# is optimisation-dependent, and the benchmark and every gate below run the
# optimised pool — so run the three files once more with --release, and
# count, because `cargo test` passes on zero tests.
out="$(cargo test -q --release --offline --locked -p ft2-parallel \
    --test cancel_stress --test pool_handoff_stress --test properties 2>&1)" || {
    echo "$out" >&2
    exit 1
}
# cancel_stress has 2 tests, pool_handoff_stress 6, properties 2.
counts="$(echo "$out" | sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' | sort -n | tr '\n' ' ')"
[ "$counts" = "2 2 6 " ] || {
    echo "verify: expected the ft2-parallel integration files to run 2, 2 and 6 tests under --release, saw: $counts" >&2
    echo "$out" >&2
    exit 1
}

echo "== storage formats, exhaustively: from_f32 on all 2^32 f32 patterns (optimised build) =="
# The tier-1 run above checks boundary tables, the 2^16 round trip and the
# to_f32 digests; the 2^33 conversions behind the from_f32 digests are
# #[ignore]d there and run here, optimised. Count, because a filter that
# matches nothing passes.
out="$(cargo test -q --release --offline --locked -p ft2-numeric --test float_exhaustive \
    -- --ignored 2>&1)" || {
    echo "$out" >&2
    exit 1
}
echo "$out" | grep -q "test result: ok. 1 passed" || {
    echo "verify: expected the one exhaustive from_f32 digest test to run under --release" >&2
    echo "$out" >&2
    exit 1
}

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

echo "== static analysis (ft2-repro lint) =="
# clippy (above) holds the type-level rules and `cargo test` the
# protection-coverage proof (crates/core/tests/coverage.rs); the in-tree
# analyser holds zero-skip, env-knob, lock-order and hold-across-blocking
# and must report zero findings on the real tree. Grep the schema keys so
# the JSON contract cannot silently drift.
LINT_TMP="$(mktemp)"
./target/release/ft2-repro lint --json > "$LINT_TMP"
for key in '"schema": 2' '"ok": true' '"finding_count": 0'; do
    grep -q "$key" "$LINT_TMP" || {
        echo "verify: lint JSON is missing $key" >&2
        cat "$LINT_TMP" >&2
        exit 1
    }
done
rm -f "$LINT_TMP"
# And the gate must actually bite: the seeded-violation fixture tree has
# a violation of each of the four classes and must exit non-zero.
if ./target/release/ft2-repro lint --root crates/analyze/tests/fixtures/bad_tree > /dev/null; then
    echo "verify: lint accepted the seeded-violation fixture tree" >&2
    exit 1
fi

echo "== every committed result: ft2-repro all, identical to results/ =="
# The whole evaluation at default sizing through the release binary (~3 min
# on 2 cores). It writes results/ under its working directory, so it runs in
# a scratch directory (the committed artifacts are never overwritten), and
# every one of the committed CSVs must equal its fresh copy byte for byte —
# except the wall-clock columns of Fig. 10 (simulator_share, the last) and
# Fig. 14 (simulator_overhead, the second), which are cut before comparing.
# Every figure, the integrity layer's scrub and repair counts included, is
# pinned.
REPO="$(pwd)"
ALL_TMP="$(mktemp -d)"
(cd "$ALL_TMP" && "$REPO/target/release/ft2-repro" all > /dev/null)
compared=0
for committed in results/*.csv; do
    name="$(basename "$committed")"
    case "$name" in
        fig10_first_token_share.csv) fields=1-4 ;;
        fig14_overhead.csv) fields=1,3- ;;
        *) fields=1- ;;
    esac
    [ -f "$ALL_TMP/results/$name" ] || {
        echo "verify: ft2-repro all did not write $name" >&2
        exit 1
    }
    cut -d, -f"$fields" "$committed" > "$ALL_TMP/want"
    cut -d, -f"$fields" "$ALL_TMP/results/$name" > "$ALL_TMP/got"
    cmp "$ALL_TMP/want" "$ALL_TMP/got" || {
        echo "verify: $name differs from the committed results" >&2
        exit 1
    }
    compared=$((compared + 1))
done
written="$(ls "$ALL_TMP"/results/*.csv | wc -l)"
[ "$compared" -eq 23 ] && [ "$written" -eq 23 ] || {
    echo "verify: expected 23 committed and 23 fresh CSVs, saw $compared and $written" >&2
    exit 1
}
rm -rf "$ALL_TMP"

echo "== correctness gates (shards, serve, replicas) =="
# Each gate runs its drills through the release binary, prints one
# pass/FAIL row per guarantee and exits non-zero if any fails — the exit
# status is the check. They time nothing; the benchmark above does.
./target/release/ft2-repro shards --smoke
./target/release/ft2-repro serve --smoke
./target/release/ft2-repro replicas --smoke

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

echo "== code lines per crate (informational; the count CHANGES.md quotes) =="
sh scripts/loc.sh

echo "verify: OK"
