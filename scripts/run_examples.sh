#!/usr/bin/env bash
# Example run gate: runs every executable under <build-dir>/examples with its
# default flags, plus topo_inspect's DOT/CSV export and hop-by-hop route
# flags, and fails on any nonzero exit or on an export that wrote nothing.
# Compiling the examples does not catch an example that aborts at run time;
# this does, in about 0.1 s. Every output lands in a throwaway mktemp -d
# directory.
#
# Usage: scripts/run_examples.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[ -d "$BUILD/examples" ] || { echo "error: no examples under $BUILD/examples" >&2; exit 2; }
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run() {
  local status=0
  "$BUILD/examples/$1" "${@:2}" > "$TMP/$1.out" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    tail -n 20 "$TMP/$1.out" >&2
    echo "error: examples/$* exited $status" >&2
    exit 1
  fi
  echo "ok       $*"
}

for path in "$BUILD"/examples/*; do
  if [ -f "$path" ] && [ -x "$path" ]; then run "$(basename "$path")"; fi
done
run topo_inspect --dot="$TMP/net.dot" --csv="$TMP/net.csv" --route=0:5
for export in net.dot net.csv; do
  [ -s "$TMP/$export" ] || { echo "error: topo_inspect wrote no $export" >&2; exit 1; }
done
echo "run_examples.sh: every example exited 0."
