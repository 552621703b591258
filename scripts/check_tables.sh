#!/usr/bin/env bash
# Table byte-identity gate: re-runs every bench whose output is deterministic
# and diffs it against the committed goldens in results/.
#
#   * bench_f1..f24, bench_t1, bench_t2: whole stdout, byte for byte;
#   * bench_t2_comparison --scale: against results/bench_t2_scale.txt;
#   * bench_scale: every column except its last two (exact-ms, rss-MB), which
#     are wall time and memory.
# bench_micro and bench_parallel_scaling print timings and are skipped.
#
# Usage: scripts/check_tables.sh [build-dir]   (default: build)
# Exits nonzero and prints a unified diff for every table that changed.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[ -d "$BUILD/bench" ] || { echo "error: no benches under $BUILD/bench" >&2; exit 2; }
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

failed=0
compare() {  # name golden fresh
  if diff -u "$2" "$3" > "$out/$1.diff"; then
    echo "same     $1"
  else
    echo "CHANGED  $1"
    cat "$out/$1.diff"
    failed=1
  fi
}

for golden in results/bench_f*.txt results/bench_t1_*.txt results/bench_t2_comparison.txt; do
  name="$(basename "$golden" .txt)"
  "$BUILD/bench/$name" > "$out/$name.txt"
  compare "$name" "$golden" "$out/$name.txt"
done

"$BUILD/bench/bench_t2_comparison" --scale > "$out/bench_t2_scale.txt"
compare bench_t2_scale results/bench_t2_scale.txt "$out/bench_t2_scale.txt"

# Table rows are "| a | b | ... |": drop the last two cells of each row.
drop_timing_columns() {
  awk -F'|' -v OFS='|' '/^\|/ { NF -= 3; print $0 "|"; next } { print }' "$1"
}
"$BUILD/bench/bench_scale" > "$out/bench_scale.raw"
drop_timing_columns results/bench_scale.txt > "$out/bench_scale.golden"
drop_timing_columns "$out/bench_scale.raw" > "$out/bench_scale.txt"
compare bench_scale "$out/bench_scale.golden" "$out/bench_scale.txt"

if [ "$failed" -ne 0 ]; then
  echo "check_tables.sh: some tables differ from results/" >&2
  exit 1
fi
echo "check_tables.sh: every deterministic table matches results/."
