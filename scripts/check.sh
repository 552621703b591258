#!/usr/bin/env bash
# Pre-submit gate: build Release and ThreadSanitizer configurations and run
# the full test suite under both. TSan exercises the DCN_THREADS pool with an
# oversubscribed thread count so scheduling interleavings vary; the
# determinism suites then prove results are still bit-identical. The Release
# build also re-runs every deterministic bench against results/
# (scripts/check_tables.sh), smoke-tests the end-to-end benchmark
# (perfbench/smoke_test.py), the one place speed is measured and gated, and
# checks every telemetry sink (scripts/check_telemetry.sh).
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

CTEST_ARGS=("$@")

echo "== Release build + tests =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --preset release -j "$JOBS" ${CTEST_ARGS+"${CTEST_ARGS[@]}"}

echo
echo "== Table byte-identity gate =="
scripts/check_tables.sh build

echo
echo "== End-to-end benchmark smoke test =="
python3 perfbench/smoke_test.py

echo
echo "== Telemetry sink gate =="
scripts/check_telemetry.sh build

echo
echo "== ThreadSanitizer build + tests =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
# Oversubscribe the pool relative to the host so TSan sees real contention.
DCN_THREADS="${DCN_THREADS_TSAN:-4}" ctest --preset tsan -j "$JOBS" \
  ${CTEST_ARGS+"${CTEST_ARGS[@]}"}

echo
echo "check.sh: all suites passed under Release and TSan."
