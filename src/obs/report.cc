#include "obs/report.h"

#include <iostream>
#include <mutex>
#include <ostream>

#include "common/cli.h"
#include "common/error.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/monitor.h"
#include "obs/rollup.h"
#include "obs/sketch.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace dcn::obs {

namespace {

// "-" (a bare --fct-summary or --alerts-json) prints to stderr.
struct SinkConfig {
  std::string trace_path;
  std::string stats_path;
  std::string fct_path;
  std::string fct_summary_path;
  std::string timeseries_csv_path;
  std::string timeseries_json_path;
  std::string alerts_path;
  bool report_to_stderr = false;
};

std::mutex g_sink_mutex;
SinkConfig g_sinks;

// Where a sink flag sends its output: `current` when the flag is absent,
// else its =FILE value. A bare flag (stored as "true") means stderr ("-")
// for the sinks that allow it and is rejected for the others, instead of
// writing a file named "true".
std::string SinkPath(const CliArgs& args, const std::string& flag,
                     const std::string& current, bool bare_to_stderr = false) {
  if (!args.Has(flag)) return current;
  const std::string value = args.GetString(flag, "");
  if (value != "true") return value;
  if (bare_to_stderr) return "-";
  throw InvalidArgument{"--" + flag + " needs a file: --" + flag + "=FILE"};
}

}  // namespace

Table ReportTable(const Snapshot& snapshot) {
  Table table{{"metric", "kind", "count", "value", "mean", "max"}};
  for (const CounterRow& row : snapshot.counters) {
    table.AddRow({row.name, "counter", "", Table::Cell(row.value), "", ""});
  }
  for (const GaugeRow& row : snapshot.gauges) {
    if (!row.set) continue;
    table.AddRow({row.name, "gauge", "", Table::Cell(row.value), "", ""});
  }
  for (const HistogramRow& row : snapshot.histograms) {
    table.AddRow({row.name, "histogram", Table::Cell(row.stats.count),
                  Table::Cell(row.stats.sum), Table::Cell(row.stats.Mean(), 3),
                  Table::Cell(row.stats.max)});
  }
  for (const TimerRow& row : snapshot.timers) {
    if (row.count == 0) continue;
    const double total_ms = static_cast<double>(row.total_ns) * 1e-6;
    table.AddRow({row.name, "timer-ms", Table::Cell(row.count),
                  Table::Cell(total_ms, 3),
                  Table::Cell(total_ms / static_cast<double>(row.count), 3), ""});
  }
  // Summary metrics (obs/sketch.h, obs/rollup.h) render alongside: the p99
  // as the headline value, bounded-error mean, exact max.
  for (const SketchRow& row : TakeSketchSnapshot()) {
    if (row.sketch.Count() == 0) continue;
    table.AddRow({row.name, "sketch-p99", Table::Cell(row.sketch.Count()),
                  Table::Cell(row.sketch.Quantile(0.99), 3),
                  Table::Cell(row.sketch.ApproxMean(), 3),
                  Table::Cell(row.sketch.Max(), 3)});
  }
  for (const HeavyHittersRow& row : TakeHeavyHittersSnapshot()) {
    const std::vector<HeavyHitters::Entry> top = row.hitters.Top();
    if (top.empty()) continue;
    table.AddRow({row.name, "top-k", Table::Cell(row.hitters.TotalWeight()),
                  "key " + Table::Cell(top.front().key),
                  Table::Cell(static_cast<std::uint64_t>(top.size())),
                  Table::Cell(top.front().count)});
  }
  for (const RollupRow& row : TakeRollupSnapshot()) {
    for (const Rollup::LevelSummary& level : row.rollup.Summarize()) {
      if (level.groups == 0) continue;
      table.AddRow({row.name + "/" + level.name, "rollup",
                    Table::Cell(level.groups), Table::Cell(level.total),
                    Table::Cell(static_cast<double>(level.total) /
                                    static_cast<double>(level.groups),
                                3),
                    Table::Cell(level.max_group_total)});
    }
  }
  return table;
}

Table ReportTable() { return ReportTable(TakeSnapshot()); }

void WriteStatsJson(std::ostream& out, const Snapshot& snapshot) {
  out << "{\n";

  out << "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterRow& row = snapshot.counters[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": " << row.value;
  }
  out << "\n},\n";

  out << "\"gauges\": {";
  bool first = true;
  for (const GaugeRow& row : snapshot.gauges) {
    if (!row.set) continue;
    out << (first ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": " << row.value;
    first = false;
  }
  out << "\n},\n";

  out << "\"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramRow& row = snapshot.histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": {\"count\": " << row.stats.count
        << ", \"sum\": " << row.stats.sum << ", \"max\": " << row.stats.max
        << ", \"overflow\": " << row.stats.overflow << ", \"buckets\": {";
    for (std::size_t b = 0; b < row.stats.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "\"" << row.stats.buckets[b].first
          << "\": " << row.stats.buckets[b].second;
    }
    out << "}}";
  }
  out << "\n},\n";

  out << "\"timers\": {";
  for (std::size_t i = 0; i < snapshot.timers.size(); ++i) {
    const TimerRow& row = snapshot.timers[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": {\"count\": " << row.count << ", \"total_ns\": " << row.total_ns
        << "}";
  }
  out << "\n},\n";

  // Summary metrics (obs/sketch.h, obs/rollup.h). Emitted even when empty
  // so the schema (scripts/validate_stats.py) is stable.
  out << "\"sketches\": {";
  const std::vector<SketchRow> sketches = TakeSketchSnapshot();
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    const SketchRow& row = sketches[i];
    const QuantileSketch& sketch = row.sketch;
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": {\"count\": " << sketch.Count()
        << ", \"zero\": " << sketch.ZeroCount()
        << ", \"relative_accuracy\": " << JsonDouble(sketch.RelativeAccuracy())
        << ", \"min\": " << JsonDouble(sketch.Min())
        << ", \"max\": " << JsonDouble(sketch.Max())
        << ", \"mean\": " << JsonDouble(sketch.ApproxMean())
        << ", \"p50\": " << JsonDouble(sketch.Quantile(0.50))
        << ", \"p90\": " << JsonDouble(sketch.Quantile(0.90))
        << ", \"p99\": " << JsonDouble(sketch.Quantile(0.99))
        << ", \"p999\": " << JsonDouble(sketch.Quantile(0.999))
        << ", \"buckets\": {";
    const std::vector<QuantileSketch::Bucket> buckets = sketch.Buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << "\"" << buckets[b].index
          << "\": " << buckets[b].count;
    }
    out << "}}";
  }
  out << "\n},\n";

  out << "\"heavy_hitters\": {";
  const std::vector<HeavyHittersRow> hitters = TakeHeavyHittersSnapshot();
  for (std::size_t i = 0; i < hitters.size(); ++i) {
    const HeavyHittersRow& row = hitters[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": {\"capacity\": " << row.hitters.Capacity()
        << ", \"total_weight\": " << row.hitters.TotalWeight()
        << ", \"floor\": " << row.hitters.Floor() << ", \"entries\": [";
    const std::vector<HeavyHitters::Entry> top = row.hitters.Top();
    for (std::size_t e = 0; e < top.size(); ++e) {
      out << (e == 0 ? "" : ", ") << "{\"key\": " << top[e].key
          << ", \"count\": " << top[e].count << ", \"error\": " << top[e].error
          << "}";
    }
    out << "]}";
  }
  out << "\n},\n";

  out << "\"rollups\": {";
  const std::vector<RollupRow> rollups = TakeRollupSnapshot();
  for (std::size_t i = 0; i < rollups.size(); ++i) {
    const RollupRow& row = rollups[i];
    out << (i == 0 ? "\n" : ",\n") << "  \"" << JsonEscape(row.name)
        << "\": {\"levels\": [";
    const std::vector<Rollup::LevelSummary> levels = row.rollup.Summarize();
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const Rollup::LevelSummary& level = levels[l];
      out << (l == 0 ? "\n" : ",\n") << "    {\"name\": \""
          << JsonEscape(level.name) << "\", \"groups\": " << level.groups
          << ", \"leaves\": " << level.leaves
          << ", \"total\": " << level.total
          << ", \"max_group\": {\"key\": " << level.max_group_key
          << ", \"total\": " << level.max_group_total << "}, \"top\": [";
      const std::vector<HeavyHitters::Entry> top = level.top.Top();
      for (std::size_t e = 0; e < top.size(); ++e) {
        out << (e == 0 ? "" : ", ") << "{\"key\": " << top[e].key
            << ", \"count\": " << top[e].count
            << ", \"error\": " << top[e].error << "}";
      }
      out << "], \"quantiles\": {\"count\": " << level.quantiles.Count()
          << ", \"p50\": " << JsonDouble(level.quantiles.Quantile(0.50))
          << ", \"p90\": " << JsonDouble(level.quantiles.Quantile(0.90))
          << ", \"p99\": " << JsonDouble(level.quantiles.Quantile(0.99))
          << ", \"p999\": " << JsonDouble(level.quantiles.Quantile(0.999))
          << "}}";
    }
    out << "\n  ]}";
  }
  out << "\n},\n";

  // Online-monitor alert log (obs/monitor.h): the same {"runs": [...]}
  // document --alerts-json writes standalone. Always present, possibly with
  // an empty runs array; schema-checked by scripts/validate_stats.py.
  out << "\"alerts\": ";
  monitor::WriteAlertsJson(out, monitor::SnapshotRuns());
  out << "\n}\n";
}

void WriteStatsJsonFile(const std::string& path) {
  const Snapshot snapshot = TakeSnapshot();
  WriteFile(path, "stats",
            [&](std::ostream& out) { WriteStatsJson(out, snapshot); });
}

void ConfigureSinks(const CliArgs& args) {
  std::lock_guard<std::mutex> lock{g_sink_mutex};
  g_sinks.trace_path = SinkPath(args, "trace-out", g_sinks.trace_path);
  g_sinks.stats_path = SinkPath(args, "stats-json", g_sinks.stats_path);
  g_sinks.fct_path = SinkPath(args, "fct-csv", g_sinks.fct_path);
  // The FCT summary keeps the per-flow records off unless --fct-csv asks for
  // them, so memory stays O(buckets) per run.
  g_sinks.fct_summary_path = SinkPath(
      args, "fct-summary", g_sinks.fct_summary_path, /*bare_to_stderr=*/true);
  g_sinks.timeseries_csv_path =
      SinkPath(args, "timeseries-csv", g_sinks.timeseries_csv_path);
  g_sinks.timeseries_json_path =
      SinkPath(args, "timeseries-json", g_sinks.timeseries_json_path);
  g_sinks.alerts_path = SinkPath(args, "alerts-json", g_sinks.alerts_path,
                                 /*bare_to_stderr=*/true);
  g_sinks.report_to_stderr = args.GetBool("obs-report", g_sinks.report_to_stderr);
  if (!g_sinks.stats_path.empty() || g_sinks.report_to_stderr) {
    EnableSpans(true);
  }
  if (!g_sinks.trace_path.empty()) EnableTraceCapture(true);

  const bool wants_timeseries = !g_sinks.timeseries_csv_path.empty() ||
                                !g_sinks.timeseries_json_path.empty();
  const bool wants_flight =
      args.Has("flight-sample") || args.Has("flight-bucket") ||
      args.GetBool("latency-breakdown", false) || !g_sinks.fct_path.empty() ||
      !g_sinks.fct_summary_path.empty() || wants_timeseries;
  if (wants_flight) {
    flight::Config cfg;
    cfg.sample_rate = args.GetDouble("flight-sample", 0.0);
    // A time-series sink without an explicit width still needs buckets.
    cfg.bucket_width =
        args.GetDouble("flight-bucket", wants_timeseries ? 50.0 : 0.0);
    cfg.latency_breakdown = args.GetBool("latency-breakdown", false);
    cfg.fct = !g_sinks.fct_path.empty();
    cfg.fct_summary = !g_sinks.fct_summary_path.empty();
    flight::Enable(cfg);
  }
}

void FlushSinks() {
  SinkConfig sinks;
  {
    std::lock_guard<std::mutex> lock{g_sink_mutex};
    sinks = std::move(g_sinks);
    g_sinks = SinkConfig{};
  }
  if (!sinks.trace_path.empty()) WriteChromeTraceFile(sinks.trace_path);
  if (!sinks.stats_path.empty()) WriteStatsJsonFile(sinks.stats_path);
  if (!sinks.fct_path.empty()) flight::WriteFctCsvFile(sinks.fct_path);
  if (!sinks.fct_summary_path.empty()) {
    if (sinks.fct_summary_path == "-") {
      flight::WriteFctSummary(std::cerr, flight::TakeRunsSnapshot());
    } else {
      flight::WriteFctSummaryFile(sinks.fct_summary_path);
    }
  }
  if (!sinks.timeseries_csv_path.empty()) {
    WriteTimeSeriesCsvFile(sinks.timeseries_csv_path);
  }
  if (!sinks.timeseries_json_path.empty()) {
    WriteTimeSeriesJsonFile(sinks.timeseries_json_path);
  }
  if (sinks.alerts_path == "-") {
    monitor::WriteAlertsJson(std::cerr, monitor::SnapshotRuns());
    std::cerr << '\n';
  } else if (!sinks.alerts_path.empty()) {
    monitor::WriteAlertsJsonFile(sinks.alerts_path);
  }
  if (sinks.report_to_stderr) {
    ReportTable().Print(std::cerr, "obs: merged instrumentation report");
  }
}

}  // namespace dcn::obs
