#!/usr/bin/env bash
# Pre-submit gate: build Release and ThreadSanitizer configurations and run
# the full test suite under both. TSan exercises the DCN_THREADS pool with an
# oversubscribed thread count so scheduling interleavings vary; the
# determinism suites then prove results are still bit-identical. The Release
# build also re-runs every deterministic bench against results/
# (scripts/check_tables.sh) and smoke-tests the end-to-end benchmark
# (perfbench/smoke_test.py), the one place speed is measured and gated.
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
echo "== Traced benchmarks + Chrome trace schema check =="
# A packet-level and an MS-BFS-heavy run with --trace-out: the traces must be
# valid Chrome trace JSON, show named sim/kernel spans, and (for the scaling
# bench, whose 2500-server sweep spans dozens of chunks) per-thread pool
# lanes. scripts/validate_trace.py asserts all three; stdout is discarded —
# determinism is ctest's job, and speed is perfbench's.
./build/bench/bench_f9_packet_latency --threads=4 \
  --trace-out=build/trace_f9.json > /dev/null
python3 scripts/validate_trace.py build/trace_f9.json \
  --expect-span packetsim/run --expect-span parallel/chunk
# Same benchmark with the flight recorder fully on: sampled packet lanes must
# appear as matched flow events, and the latency-breakdown / FCT /
# time-series sinks must all write. The F9 table itself must stay
# byte-identical to the untraced run (the recorder only observes).
./build/bench/bench_f9_packet_latency --threads=4 > build/f9_plain.txt
./build/bench/bench_f9_packet_latency --threads=4 \
  --flight-sample=0.05 --flight-bucket=50 --latency-breakdown \
  --trace-out=build/trace_f9_flight.json \
  --timeseries-csv=build/f9_timeseries.csv \
  --fct-csv=build/f9_fct.csv \
  --fct-summary=build/f9_fct_summary.txt \
  --stats-json=build/f9_stats.json > build/f9_flight.txt
python3 scripts/validate_trace.py build/trace_f9_flight.json \
  --expect-span packetsim/run --expect-flight
# The telemetry-sketch registries (obs/sketch.h, obs/rollup.h) must export
# schema-valid, internally consistent blocks with the packetsim telemetry
# populated. scripts/validate_stats.py asserts the sketch/heavy-hitter/rollup
# invariants (counts reconcile, quantiles monotone, level totals agree).
python3 scripts/validate_stats.py build/f9_stats.json \
  --expect-sketch packetsim/latency --expect-sketch packetsim/slowdown \
  --expect-heavy-hitters packetsim/hot_links \
  --expect-heavy-hitters packetsim/elephant_flows \
  --expect-rollup packetsim/links --expect-counter packetsim/runs
if ! diff <(sed -n '/== F9: packet-level/,/^$/p' build/f9_plain.txt) \
          <(sed -n '/== F9: packet-level/,/^$/p' build/f9_flight.txt); then
  echo "error: F9 table changed with the flight recorder enabled" >&2
  exit 1
fi
# F9 is packet-level, so its FCT summary is an empty table; the fluid shuffle
# bench records real completion times and must produce populated quantile
# rows from the bounded sketch (no per-flow CSV needed). Its stats must also
# carry the FCT sketch and the progressive-filling counters (one
# flowsim/calls per fluid rate recomputation).
./build/bench/bench_f23_shuffle \
  --fct-summary=build/f23_fct_summary.txt \
  --stats-json=build/f23_stats.json > /dev/null
grep -q '| fluid |' build/f23_fct_summary.txt || {
  echo "error: FCT summary has no fluid rows" >&2; exit 1; }
python3 scripts/validate_stats.py build/f23_stats.json \
  --expect-sketch fluid/fct --expect-counter fluid/rate_recomputations \
  --expect-counter flowsim/calls --expect-counter flowsim/bottleneck_rounds
./build/bench/bench_parallel_scaling --repeats=1 --threads-max=4 \
  --trace-out=build/trace_scaling.json > /dev/null
python3 scripts/validate_trace.py build/trace_scaling.json \
  --expect-span msbfs/batch --expect-span parallel/chunk \
  --expect-thread pool-worker-0
# The health monitor (obs/monitor.h) must export a schema-valid alert log on
# all three sinks: the standalone --alerts-json document, the "alerts" block
# inside --stats-json, and alert instant events in the Chrome trace.
# validate_stats.py additionally proves the fault-free control runs fired
# zero alarms while the faulted runs really fired (--expect-fired).
./build/bench/bench_f24_detection --threads=4 \
  --alerts-json=build/f24_alerts.json \
  --stats-json=build/f24_stats.json \
  --trace-out=build/trace_f24.json > /dev/null
python3 scripts/validate_stats.py build/f24_alerts.json --alerts --expect-fired
python3 scripts/validate_stats.py build/f24_stats.json \
  --expect-counter monitor/runs --expect-counter monitor/alerts_fired \
  --expect-fired
python3 scripts/validate_trace.py build/trace_f24.json --expect-alert

echo
echo "== ThreadSanitizer build + tests =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
# Oversubscribe the pool relative to the host so TSan sees real contention.
DCN_THREADS="${DCN_THREADS_TSAN:-4}" ctest --preset tsan -j "$JOBS" \
  ${CTEST_ARGS+"${CTEST_ARGS[@]}"}

echo
echo "check.sh: all suites passed under Release and TSan."
