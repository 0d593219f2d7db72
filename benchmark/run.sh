#!/usr/bin/env bash
# The FT2 benchmark, one command: build offline, run, check, print.
#
#   run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#       Run one workload, or all six when --workload is absent. Prints one
#       "name value unit" line per metric and, last, one JSON result line.
#   run.sh --selfcheck    the full set twice; both values, their relative
#                         difference and the bound, for every end-to-end metric
#   run.sh --manifest     print BENCHMARK.json as the metric tables define it
#   run.sh --test         the benchmark's own unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/ft2-benchmark"
export FT2_BENCH_OUT="${FT2_BENCH_OUT:-$here/out}"
export FT2_BENCH_RUSTC="${FT2_BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"

workloads=(solo_decode sharded_decode serve_decode serve_prefill serve_storm campaign)

if [[ "${1:-}" == "--test" ]]; then
    exec cargo test --offline --release --manifest-path "$here/Cargo.toml"
fi

# Cargo reports on stderr; stdout stays the benchmark's own.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

case "${1:-}" in
--manifest)
    exec "$bin" --manifest
    ;;
--selfcheck)
    mkdir -p "$FT2_BENCH_OUT"
    for pass in 1 2; do
        : >"$FT2_BENCH_OUT/selfcheck-$pass.jsonl"
        for w in "${workloads[@]}"; do
            echo "== pass $pass: $w" >&2
            "$bin" --workload "$w" "${@:2}" | tee /dev/stderr | tail -n 1 >>"$FT2_BENCH_OUT/selfcheck-$pass.jsonl"
        done
    done
    exec "$bin" --compare "$FT2_BENCH_OUT/selfcheck-1.jsonl" "$FT2_BENCH_OUT/selfcheck-2.jsonl"
    ;;
esac

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@"
    fi
done
for w in "${workloads[@]}"; do
    echo "== $w"
    "$bin" --workload "$w" "$@"
done
