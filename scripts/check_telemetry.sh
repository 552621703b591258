#!/usr/bin/env bash
# Telemetry sink gate: runs the traced, flight-recorder and health-monitor
# benches with every obs sink on and checks what they write.
#
#   * Chrome traces (--trace-out) are schema-valid with named sim/kernel
#     spans, pool lanes, flight lanes and alert instants
#     (scripts/validate_trace.py);
#   * trace lanes are named by thread, not by which thread touched obs
#     first: two traced F9 runs (--threads=4) carry identical thread_name
#     metadata (tid -> name);
#   * stats JSON (--stats-json) and the standalone alert log (--alerts-json)
#     are schema-valid with the expected sketches, heavy hitters, rollups,
#     counters and fired alerts (scripts/validate_stats.py);
#   * the flight sinks (--timeseries-csv/-json, --fct-csv, --fct-summary)
#     write non-empty files, and F9's table is byte-identical with the
#     recorder on and off (the recorder only observes);
#   * --obs-report lists the packetsim latency sketch on stderr;
#   * a bare --alerts-json or --fct-summary prints to stderr, and a bare
#     file sink flag (--trace-out, --stats-json, --fct-csv,
#     --timeseries-csv, --timeseries-json) fails naming the flag — none of
#     them writes a file.
#
# Usage: scripts/check_telemetry.sh [build-dir]   (default: build)
# Outputs land in <build-dir>/telemetry/ (CI uploads them as artifacts).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
[ -d "$BUILD/bench" ] || { echo "error: no benches under $BUILD/bench" >&2; exit 2; }
OUT="$BUILD/telemetry"
mkdir -p "$OUT"
bench() { "$BUILD/bench/$1" "${@:2}"; }
fail() { echo "error: $*" >&2; exit 1; }

echo "== traced benches =="
bench bench_f9_packet_latency --threads=4 --trace-out="$OUT/trace_f9.json" > /dev/null
python3 scripts/validate_trace.py "$OUT/trace_f9.json" \
  --expect-span packetsim/run --expect-span parallel/chunk
bench bench_f9_packet_latency --threads=4 --trace-out="$OUT/trace_f9_again.json" > /dev/null
python3 - "$OUT/trace_f9.json" "$OUT/trace_f9_again.json" <<'EOF'
import json
import sys

def lanes(path):
    return {(e["pid"], e["tid"]): e["args"]["name"] for e in json.load(open(path))
            if e["ph"] == "M" and e["name"] == "thread_name"}

first, second = (lanes(path) for path in sys.argv[1:])
if first != second:
    sys.exit(f"error: traced F9 runs name their lanes differently: {first} vs {second}")
print(f"traced F9 runs name all {len(first)} lanes alike")
EOF
# The scaling bench's 2500-server sweep spans dozens of chunks, so per-thread
# pool lanes must appear.
bench bench_parallel_scaling --repeats=1 --threads-max=4 \
  --trace-out="$OUT/trace_scaling.json" > /dev/null
python3 scripts/validate_trace.py "$OUT/trace_scaling.json" \
  --expect-span msbfs/batch --expect-span parallel/chunk \
  --expect-thread pool-worker-0

echo "== flight recorder: F9 =="
bench bench_f9_packet_latency --threads=4 > "$OUT/f9_plain.txt"
bench bench_f9_packet_latency --threads=4 \
  --flight-sample=0.05 --flight-bucket=50 --latency-breakdown \
  --trace-out="$OUT/trace_f9_flight.json" \
  --timeseries-csv="$OUT/f9_timeseries.csv" \
  --fct-csv="$OUT/f9_fct.csv" \
  --fct-summary="$OUT/f9_fct_summary.txt" \
  --stats-json="$OUT/f9_stats.json" > "$OUT/f9_flight.txt"
python3 scripts/validate_trace.py "$OUT/trace_f9_flight.json" \
  --expect-span packetsim/run --expect-flight
python3 scripts/validate_stats.py "$OUT/f9_stats.json" \
  --expect-sketch packetsim/latency --expect-sketch packetsim/slowdown \
  --expect-heavy-hitters packetsim/hot_links \
  --expect-heavy-hitters packetsim/elephant_flows \
  --expect-rollup packetsim/links --expect-counter packetsim/runs
test -s "$OUT/f9_fct_summary.txt" || fail "missing F9 FCT summary table"
diff <(sed -n '/== F9: packet-level/,/^$/p' "$OUT/f9_plain.txt") \
     <(sed -n '/== F9: packet-level/,/^$/p' "$OUT/f9_flight.txt") ||
  fail "F9 table changed with the flight recorder enabled"

echo "== --obs-report: F9 =="
bench bench_f9_packet_latency --threads=4 --obs-report \
  > /dev/null 2> "$OUT/f9_report.txt"
grep -Eq '\| +packetsim/latency \| sketch-p99 \|' "$OUT/f9_report.txt" ||
  fail "--obs-report lists no packetsim/latency sketch row"

echo "== flight recorder: F21 time-series JSON =="
bench bench_f21_broadcast_load --threads=4 \
  --timeseries-json="$OUT/f21_timeseries.json" > /dev/null
python3 - "$OUT/f21_timeseries.json" <<'EOF'
import json
import sys

series = json.load(open(sys.argv[1]))["series"]
if not series:
    sys.exit("error: F21 time-series JSON has no series")
print(f"{sys.argv[1]}: {len(series)} series")
EOF

echo "== flight recorder: F22 =="
bench bench_f22_incast --threads=4 \
  --flight-sample=0.05 --flight-bucket=50 --latency-breakdown \
  --trace-out="$OUT/trace_f22_flight.json" \
  --timeseries-csv="$OUT/f22_timeseries.csv" \
  --fct-csv="$OUT/f22_rates.csv" > /dev/null
python3 scripts/validate_trace.py "$OUT/trace_f22_flight.json" --expect-flight

echo "== flight recorder: F23 =="
# F9 is packet-level, so its FCT summary is an empty table; the fluid shuffle
# bench records real completion times and must produce populated quantile
# rows from the bounded sketch. Its stats must also carry the FCT sketch and
# the progressive-filling counters (one flowsim/calls per fluid rate
# recomputation).
bench bench_f23_shuffle --threads=4 \
  --fct-csv="$OUT/f23_fct.csv" \
  --fct-summary="$OUT/f23_fct_summary.txt" \
  --stats-json="$OUT/f23_stats.json" > /dev/null
grep -q '| fluid |' "$OUT/f23_fct_summary.txt" || fail "FCT summary has no fluid rows"
python3 scripts/validate_stats.py "$OUT/f23_stats.json" \
  --expect-sketch fluid/fct --expect-counter fluid/rate_recomputations \
  --expect-counter flowsim/calls --expect-counter flowsim/bottleneck_rounds

for file in f9_timeseries.csv f9_fct.csv f22_timeseries.csv f22_rates.csv \
            f23_fct.csv; do
  test -s "$OUT/$file" || fail "missing flight CSV: $file"
done

echo "== health monitor: F24 =="
# The alert log must be schema-valid on all three sinks: the standalone
# --alerts-json document, the "alerts" block inside --stats-json, and alert
# instant events in the Chrome trace. --expect-fired also proves the
# fault-free control runs fired zero alarms while the faulted runs fired.
bench bench_f24_detection --threads=4 \
  --alerts-json="$OUT/f24_alerts.json" \
  --stats-json="$OUT/f24_stats.json" \
  --trace-out="$OUT/trace_f24.json" > /dev/null
python3 scripts/validate_stats.py "$OUT/f24_alerts.json" --alerts --expect-fired
python3 scripts/validate_stats.py "$OUT/f24_stats.json" \
  --expect-counter monitor/runs --expect-counter monitor/alerts_fired \
  --expect-fired
python3 scripts/validate_trace.py "$OUT/trace_f24.json" --expect-alert

echo "== bare sink flags =="
# Run from an empty scratch directory so a sink that took a bare flag's
# "true" as its file name would leave that file behind.
BARE="$(mktemp -d)"
trap 'rm -rf "$BARE"' EXIT
BIN="$(cd "$BUILD/bench" && pwd)"
(cd "$BARE" && "$BIN/bench_f24_detection" --threads=4 --alerts-json \
   > /dev/null 2> alerts_stderr.json)
python3 scripts/validate_stats.py "$BARE/alerts_stderr.json" --alerts --expect-fired
(cd "$BARE" && "$BIN/bench_f23_shuffle" --threads=4 --fct-summary \
   > /dev/null 2> fct_summary_stderr.txt)
grep -q '| fluid |' "$BARE/fct_summary_stderr.txt" ||
  fail "bare --fct-summary printed no fluid rows to stderr"
python3 - "$BIN/bench_f23_shuffle" "$BARE" <<'EOF'
import os
import subprocess
import sys

bench, scratch = sys.argv[1], sys.argv[2]
flags = ("trace-out", "stats-json", "fct-csv", "timeseries-csv", "timeseries-json")
for flag in flags:
    run = subprocess.run([bench, "--threads=4", f"--{flag}"], cwd=scratch,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if run.returncode == 0:
        sys.exit(f"error: bare --{flag} was accepted")
    if f"--{flag} needs a file" not in run.stderr:
        sys.exit(f"error: bare --{flag} failed without naming the flag")
written = sorted(set(os.listdir(scratch)) - {"alerts_stderr.json", "fct_summary_stderr.txt"})
if written:
    sys.exit(f"error: a bare sink flag wrote {written}")
print(f"bare file-sink flags rejected by name: {', '.join(flags)}")
EOF

echo "check_telemetry.sh: every telemetry sink checks out."
