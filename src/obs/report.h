// Human- and machine-readable dumps of the obs registry, plus the standard
// sink wiring every binary shares:
//
//   --stats-json=FILE   write merged counters/gauges/histograms/timers as
//                       JSON at exit (enables span timing)
//   --trace-out=FILE    additionally capture per-span trace events and write
//                       Chrome trace JSON at exit (obs/trace.h) — includes
//                       flight-recorder packet lanes when sampling is on
//   --obs-report        print ReportTable() to stderr at exit (stderr so the
//                       diff-able stdout tables stay byte-identical)
//   --alerts-json[=FILE]  write the online health monitor's published runs
//                       (obs/monitor.h: alert log + per-window recovery
//                       aggregates) as JSON at exit, to FILE or to stderr
//                       when bare; the same document is embedded in
//                       --stats-json as the "alerts" block
//
// Flight-recorder flags (obs/flight.h); any of them enables the recorder:
//
//   --flight-sample=R       sample fraction R of packets' full lifecycles
//   --flight-bucket=W       per-link/in-flight time series, bucket width W
//                           (defaults to 50 when a time-series sink is
//                           requested without it)
//   --latency-breakdown     queueing/serialization decomposition (also read
//                           directly by bench_f9 / bench_f22 for their table)
//   --fct-csv=FILE          per-flow completion/rate records -> CSV at exit
//   --fct-summary[=FILE]    per-run FCT quantile table (p50/p90/p99/p999 from
//                           the obs/sketch.h quantile sketch) -> FILE, or
//                           stderr when bare; unlike --fct-csv this never
//                           materializes per-flow records, so memory stays
//                           O(buckets) however many flows a run completes
//   --timeseries-csv=FILE   merged time-series buckets -> CSV at exit
//   --timeseries-json=FILE  merged time-series buckets -> JSON at exit
//
// ConfigureSinks parses those flags (common/cli.h); a bare flag whose sink
// needs a FILE throws InvalidArgument naming it. FlushSinks writes whatever
// was configured. bench/bench_util.h pairs the two automatically
// for every experiment binary.
#pragma once

#include <iosfwd>
#include <string>

#include "common/table.h"
#include "obs/obs.h"

namespace dcn {
class CliArgs;
}  // namespace dcn

namespace dcn::obs {

// One row per registered metric, in registration order: counters (value),
// gauges (max), histograms (count/mean/max), timers (count/total-ms/mean-us),
// then the summary metrics (quantile sketches, heavy hitters, rollup levels
// — obs/sketch.h, obs/rollup.h), which are read live from the registry
// rather than from `snapshot`.
Table ReportTable(const Snapshot& snapshot);
Table ReportTable();

// {"counters": {...}, "gauges": {...}, "histograms": {...}, "timers": {...},
//  "sketches": {...}, "heavy_hitters": {...}, "rollups": {...},
//  "alerts": {...}} — the summary blocks read the registry live and
// "alerts" embeds the monitor's published runs (always present, possibly
// empty; schema checked by scripts/validate_stats.py). Counter, histogram,
// sketch, and alert contents are deterministic at any thread count; timer
// durations are wall-clock and vary run to run.
void WriteStatsJson(std::ostream& out, const Snapshot& snapshot);
void WriteStatsJsonFile(const std::string& path);

// Reads --trace-out / --stats-json / --obs-report and enables span timing /
// trace capture accordingly. Without any of the flags this is a no-op and
// spans stay disabled (their cost collapses to one predictable branch).
void ConfigureSinks(const CliArgs& args);

// Writes every sink configured by ConfigureSinks (no-op when none); a file
// that cannot be written throws InvalidArgument. Call once at process exit,
// outside parallel regions. Idempotent: flushing clears the configuration.
void FlushSinks();

}  // namespace dcn::obs
