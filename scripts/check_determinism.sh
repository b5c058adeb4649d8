#!/usr/bin/env bash
# check_determinism: binary-level differential determinism check.
#
# Reports must not depend on how the host executes them. This script
# checks that through the real binaries, where a divergence could also
# come from CLI plumbing, the report renderers, or environment
# handling:
#
#   1. `capstan-report --all --preset quick` emits byte-identical JSON
#      at --jobs 1 and --jobs 4 (the sweep pool runs points in any
#      order; the report must not show it).
#   2. The --jobs 1 Markdown with --check is byte-identical to the
#      committed docs/RESULTS.md. report_quick checks only the
#      reference metrics; this gates every rendered cell, the
#      unchecked Fig. 5-7 and Table 13 ones included. After a change
#      that moves a result on purpose, regenerate the file with
#      `./build/capstan-report --all --preset quick --check`.
#   3. Single pagerank, bfs and spmspm runs are byte-identical with and
#      without CAPSTAN_NO_FF=1 (dense one-cycle stepping instead of the
#      fast-forward engine), each in its own process.
#
# Usage: check_determinism.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"
run="$build_dir/capstan-run"
report="$build_dir/capstan-report"
[ -x "$run" ] || { echo "missing $run" >&2; exit 1; }
[ -x "$report" ] || { echo "missing $report" >&2; exit 1; }

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "check_determinism: FAIL — $1" >&2
    exit 1
}

# --- 1. Full quick report across sweep-pool sizes. -----------------------
quick=(--all --preset quick --check
       --reference "$root/data/paper_reference.json")
"$report" "${quick[@]}" --jobs 1 --json "$tmp/j1.json" \
    --markdown "$tmp/j1.md" >/dev/null 2>&1
"$report" "${quick[@]}" --jobs 4 --json "$tmp/j4.json" \
    --markdown none >/dev/null 2>&1
cmp -s "$tmp/j1.json" "$tmp/j4.json" ||
    fail "quick report diverged between --jobs 1 and --jobs 4"
echo "quick report: byte-identical at --jobs 1 / 4"

# --- 2. The committed quick report. ---------------------------------------
cmp -s "$tmp/j1.md" "$root/docs/RESULTS.md" ||
    fail "quick report Markdown differs from docs/RESULTS.md"
echo "quick report: byte-identical to docs/RESULTS.md"

# --- 3. Single runs with and without fast-forward stepping. --------------
point=(--scale 0.02 --tiles 4 --iterations 1 --json)
for app in pagerank bfs spmspm; do
    "$run" --app "$app" "${point[@]}" --output "$tmp/$app.ff.json"
    CAPSTAN_NO_FF=1 "$run" --app "$app" "${point[@]}" \
        --output "$tmp/$app.dense.json"
    cmp -s "$tmp/$app.ff.json" "$tmp/$app.dense.json" ||
        fail "$app diverged under CAPSTAN_NO_FF=1"
    echo "$app: byte-identical with and without fast-forward"
done

echo "check_determinism: OK"
