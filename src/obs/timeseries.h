// Fixed-width windows over simulated time: the one window rule every
// windowed producer shares (the flight recorder's time series, the health
// monitor, the sharded packet engine's window matrices), plus the
// time-series rows the flight recorder (obs/flight.h) keeps per run and
// their CSV/JSON export.
//
// A series has a merge kind and a bucket width (in whatever time unit the
// recorder uses — the simulators record simulated time). Record(row, time,
// value) folds `value` into bucket WindowOf(time, width):
//   * kSum — bucket accumulates the sum (per-link transmit counts,
//     utilization numerators);
//   * kMax — bucket keeps the maximum (queue depths, in-flight packets).
// Values must be non-negative (kMax buckets start at 0).
//
// Edge cases are defined, not accidental: an event exactly on a bucket
// boundary t == k*width lands in bucket k (half-open buckets
// [k*width, (k+1)*width)); a run shorter than one bucket produces a single
// partial bucket; the final bucket of any run is partial unless the horizon
// divides evenly. Negative times land in window 0, and indices clamp to
// kMaxWindowIndex so a wild timestamp cannot exhaust memory.
//
// Series are per-run state of a flight Recorder: written only through it, on
// the run's thread, named "run<id>/<sim>/...", read through each run's
// flight::RunSnapshot::series, and cleared with the runs by obs::Reset().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dcn::obs {

enum class SeriesKind : std::uint8_t { kSum, kMax };

inline constexpr std::uint32_t kMaxWindowIndex = (1u << 22) - 1;

// Window attribution rule shared by every producer: an event at `time`
// belongs to window floor(time / width), with negative (and NaN) times in
// window 0 and indices clamped to kMaxWindowIndex. `width` must be > 0.
// Serial and sharded engines call this one function, so boundary events land
// in the same window.
inline std::uint32_t WindowOf(double time, double width) {
  if (!(time > 0.0)) return 0;
  const double window = time / width;  // positive: truncation is the floor
  return window >= static_cast<double>(kMaxWindowIndex)
             ? kMaxWindowIndex
             : static_cast<std::uint32_t>(window);
}

struct TimeSeriesRow {
  std::string name;
  SeriesKind kind = SeriesKind::kSum;
  double bucket_width = 0.0;
  // Buckets, index 0 = [0, width). Trailing buckets never touched are
  // absent; untouched interior buckets read 0.
  std::vector<std::int64_t> buckets;
};

// Folds `value` (>= 0) into the bucket of `row` that contains `time`.
void Record(TimeSeriesRow& row, double time, std::int64_t value);

// Long-format CSV: series,kind,bucket_width,bucket,t_start,value — one row
// per (series, bucket), series in snapshot order. Series with no data are
// skipped.
void WriteTimeSeriesCsv(std::ostream& out,
                        const std::vector<TimeSeriesRow>& rows);

// JSON: {"series": [{"name", "kind", "bucket_width", "buckets": [...]}]}.
void WriteTimeSeriesJson(std::ostream& out,
                         const std::vector<TimeSeriesRow>& rows);

}  // namespace dcn::obs
