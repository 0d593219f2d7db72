#!/usr/bin/env sh
# Code lines per crate and in total: the non-blank, non-comment lines of
# every crates/X/src/**/*.rs that come before the file's first
# `#[cfg(test)]`. This is the count the simplicity entries in CHANGES.md
# quote; run it on a clone of the parent commit for the "before" column:
#
#   sh scripts/loc.sh              # this checkout
#   sh scripts/loc.sh /path/to/parent-clone
set -eu

cd "${1:-$(dirname "$0")/..}"

total=0
for src in crates/*/src; do
    n="$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }' {} +)"
    printf '%-14s %6d\n' "$(basename "$(dirname "$src")")" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
