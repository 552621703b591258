// Streaming statistics and histograms used by metrics and simulators.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace dcn {

// Welford online mean/variance plus min/max. O(1) memory, numerically stable.
class OnlineStats {
 public:
  void Add(double x);

  std::int64_t Count() const { return count_; }
  double Mean() const;
  double Variance() const;  // population variance
  double Stddev() const;
  double Min() const;
  double Max() const;
  double Sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact histogram over small non-negative integer values (path lengths, hop
// counts). Percentiles are exact, not interpolated.
class IntHistogram {
 public:
  void Add(std::int64_t value, std::int64_t weight = 1);
  // Adds every bucket of `other`; order-insensitive (exact integer counts),
  // so parallel partials merge to the same histogram in any order.
  void Merge(const IntHistogram& other);

  std::int64_t Count() const { return total_; }
  double Mean() const;
  std::int64_t Min() const;
  std::int64_t Max() const;
  // Smallest value v such that at least `fraction` of the mass is <= v.
  // fraction in (0, 1]; Percentile(0.5) is the median.
  std::int64_t Percentile(double fraction) const;
  const std::map<std::int64_t, std::int64_t>& Buckets() const { return buckets_; }

 private:
  std::map<std::int64_t, std::int64_t> buckets_;
  std::int64_t total_ = 0;
};

// Reservoir of double samples with exact percentile queries (sorts lazily).
// Used for latency distributions in the packet simulator.
class SampleSet {
 public:
  void Add(double value);
  std::size_t Count() const { return values_.size(); }
  double Mean() const;
  double Percentile(double fraction) const;  // fraction in (0, 1]
  double Min() const;
  double Max() const;

 private:
  void EnsureSorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

}  // namespace dcn
