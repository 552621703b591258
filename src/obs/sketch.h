// Deterministic, mergeable telemetry sketches: bounded-error quantiles and
// top-K heavy hitters in O(buckets + K) space regardless of stream length.
//
// QuantileSketch — a DDSketch-style log-bucketed quantile summary. Values are
// hashed to geometric buckets index = ceil(log(v) / log(gamma)) with
// gamma = (1 + alpha) / (1 - alpha), so the bucket midpoint estimate
// 2 * gamma^i / (gamma + 1) is within a RELATIVE error of alpha of every
// value in the bucket. Quantile(q) therefore returns an estimate x~ with
// |x~ - x| <= alpha * x for the exact rank-ceil(q*n) order statistic x
// (values below kMinTrackable collapse into an exact zero bucket and are
// returned as 0). Bucket counts are integers and min/max are tracked exactly,
// so Merge is commutative and associative — merged readouts are bit-identical
// in any merge order, which is what makes the registry handles below safe to
// feed from any thread at any DCN_THREADS.
//
// HeavyHitters — a Space-Saving (Misra–Gries family) top-K summary over
// integer keys (links, switches, flow ids) with integer weights. Each tracked
// entry carries (count, error) with the classic guarantee
//     count - error <= true_weight(key) <= count
// and error <= TotalWeight() / Capacity() for a single-stream summary (the
// mergeable-summaries bound total/K continues to hold across Merge). All
// tie-breaks are by key — eviction removes the minimum-count entry with the
// LARGEST key, Top() orders by (count desc, key asc) — so a given add
// sequence produces one well-defined summary. Note that unlike the quantile
// sketch, Merge is commutative but NOT associative (pruning loses
// information), so deterministic use requires a deterministic merge tree:
// feed registry handles from the coordinating thread after a run (as the
// simulators do), or merge explicit partials in fixed chunk order
// (common/parallel.h ParallelMapReduce).
//
// Registry handles (GetQuantileSketch / GetHeavyHitters) are obs/obs.h
// SummaryMetrics: named process-global metrics, each one mutex-guarded merged
// value, exported by the stats-JSON / --obs-report sinks (obs/report.cc) and
// emptied (registrations kept) by obs::Reset().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace dcn::obs {

class QuantileSketch {
 public:
  // 1% relative value error: p99 of a 10000-time-unit tail reads within
  // +-100 time units of truth, at ~1000 buckets per decade-spanning stream.
  static constexpr double kDefaultAccuracy = 0.01;
  // Values in [0, kMinTrackable) land in the exact zero bucket (reported as
  // 0, which for that range IS within any relative bound worth having).
  static constexpr double kMinTrackable = 1e-9;

  explicit QuantileSketch(double relative_accuracy = kDefaultAccuracy);

  // `value` must be finite and >= 0 (callers exclude sentinel infinities —
  // see sim/fluid.cc's unroutable counter). `weight` adds that many
  // occurrences in O(1).
  void Add(double value, std::uint64_t weight = 1);
  // Exact bucket-count addition; requires matching relative accuracy.
  void Merge(const QuantileSketch& other);

  std::uint64_t Count() const { return count_; }
  std::uint64_t ZeroCount() const { return zero_; }
  double RelativeAccuracy() const { return alpha_; }
  double Min() const;  // exact; 0 when empty
  double Max() const;  // exact; 0 when empty

  // Estimate of the rank-ceil(q * Count()) order statistic (q clamped into
  // (0, 1]; 0 on an empty sketch), clamped into [Min(), Max()].
  double Quantile(double q) const;
  // Mean from the bucket midpoints (relative error <= alpha), accumulated in
  // ascending bucket order so it is identical however the sketch was merged.
  double ApproxMean() const;

  struct Bucket {
    std::int32_t index = 0;
    std::uint64_t count = 0;
  };
  // Non-empty log buckets, ascending index. The zero bucket is not included.
  std::vector<Bucket> Buckets() const;
  // Midpoint value estimate of log bucket `index` (2 gamma^i / (gamma + 1)).
  double BucketEstimate(std::int32_t index) const;

 private:
  std::int32_t IndexOf(double value) const;
  void AddBucket(std::int32_t index, std::uint64_t weight);

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  // Contiguous counts for bucket indices [lo_, lo_ + counts_.size()); grown
  // on demand. Log-bucket indices of any one stream span a few hundred slots
  // (the whole double range fits in ~4k at the default accuracy).
  std::int32_t lo_ = 0;
  std::vector<std::uint64_t> counts_;
};

class HeavyHitters {
 public:
  explicit HeavyHitters(std::size_t capacity);

  // Adds `weight` occurrences of `key`. O(log K).
  void Add(std::int64_t key, std::uint64_t weight = 1);
  // Mergeable-summaries union: keys absent from one side contribute that
  // side's Floor() as count and error, then the union is pruned back to the
  // top `capacity` by (count desc, key asc). Requires matching capacities.
  void Merge(const HeavyHitters& other);

  std::size_t Capacity() const { return capacity_; }
  std::uint64_t TotalWeight() const { return total_; }
  // Upper bound on the true weight of any key NOT in Top().
  std::uint64_t Floor() const { return floor_; }

  struct Entry {
    std::int64_t key = 0;
    std::uint64_t count = 0;  // overestimate: true <= count <= true + error
    std::uint64_t error = 0;
  };
  // Tracked entries ordered by (count desc, key asc).
  std::vector<Entry> Top() const;

 private:
  struct Counts {
    std::uint64_t count = 0;
    std::uint64_t error = 0;
  };
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::uint64_t floor_ = 0;
  std::map<std::int64_t, Counts> entries_;
};

// ---------------------------------------------------------------------------
// Registry handles (obs/obs.h SummaryMetric).

using SketchMetric = SummaryMetric<QuantileSketch>;
using HeavyHittersMetric = SummaryMetric<HeavyHitters>;

// Registers (or finds) a named metric. Re-registration must agree on the
// parameters. Handles stay valid across obs::Reset() — reset clears the
// data, not the registrations — so caching them in static locals is safe.
SketchMetric& GetQuantileSketch(
    std::string_view name,
    double relative_accuracy = QuantileSketch::kDefaultAccuracy);
HeavyHittersMetric& GetHeavyHitters(std::string_view name,
                                    std::size_t capacity = 16);

struct SketchRow {
  std::string name;
  QuantileSketch sketch;
};
struct HeavyHittersRow {
  std::string name;
  HeavyHitters hitters;
};

// Merged values in registration order.
std::vector<SketchRow> TakeSketchSnapshot();
std::vector<HeavyHittersRow> TakeHeavyHittersSnapshot();

}  // namespace dcn::obs
