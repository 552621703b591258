#include "obs/timeseries.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "obs/export.h"

namespace dcn::obs {

void Record(TimeSeriesRow& row, double time, std::int64_t value) {
  DCN_ASSERT(value >= 0);
  const std::size_t bucket = WindowOf(time, row.bucket_width);
  if (row.buckets.size() <= bucket) row.buckets.resize(bucket + 1, 0);
  if (row.kind == SeriesKind::kSum) {
    row.buckets[bucket] += value;
  } else {
    row.buckets[bucket] = std::max(row.buckets[bucket], value);
  }
}

namespace {

std::string CsvField(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void WriteTimeSeriesCsv(std::ostream& out,
                        const std::vector<TimeSeriesRow>& rows) {
  out << "series,kind,bucket_width,bucket,t_start,value\n";
  for (const TimeSeriesRow& row : rows) {
    if (row.buckets.empty()) continue;
    const char* kind = row.kind == SeriesKind::kSum ? "sum" : "max";
    for (std::size_t b = 0; b < row.buckets.size(); ++b) {
      out << CsvField(row.name) << ',' << kind << ',' << row.bucket_width
          << ',' << b << ',' << static_cast<double>(b) * row.bucket_width
          << ',' << row.buckets[b] << '\n';
    }
  }
}

void WriteTimeSeriesJson(std::ostream& out,
                         const std::vector<TimeSeriesRow>& rows) {
  out << "{\"series\": [";
  bool first = true;
  for (const TimeSeriesRow& row : rows) {
    if (row.buckets.empty()) continue;
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << JsonEscape(row.name)
        << "\", \"kind\": \""
        << (row.kind == SeriesKind::kSum ? "sum" : "max")
        << "\", \"bucket_width\": " << row.bucket_width << ", \"buckets\": [";
    for (std::size_t b = 0; b < row.buckets.size(); ++b) {
      out << (b == 0 ? "" : ", ") << row.buckets[b];
    }
    out << "]}";
    first = false;
  }
  out << "\n]}\n";
}

void WriteTimeSeriesCsvFile(const std::string& path) {
  const std::vector<TimeSeriesRow> rows = TakeTimeSeriesSnapshot();
  WriteFile(path, "time-series CSV",
            [&](std::ostream& out) { WriteTimeSeriesCsv(out, rows); });
}

void WriteTimeSeriesJsonFile(const std::string& path) {
  const std::vector<TimeSeriesRow> rows = TakeTimeSeriesSnapshot();
  WriteFile(path, "time-series JSON",
            [&](std::ostream& out) { WriteTimeSeriesJson(out, rows); });
}

}  // namespace dcn::obs
