#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace dcn {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::Mean() const {
  DCN_REQUIRE(count_ > 0, "OnlineStats::Mean on empty stats");
  return mean_;
}

double OnlineStats::Variance() const {
  DCN_REQUIRE(count_ > 0, "OnlineStats::Variance on empty stats");
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::Stddev() const { return std::sqrt(Variance()); }

double OnlineStats::Min() const {
  DCN_REQUIRE(count_ > 0, "OnlineStats::Min on empty stats");
  return min_;
}

double OnlineStats::Max() const {
  DCN_REQUIRE(count_ > 0, "OnlineStats::Max on empty stats");
  return max_;
}

void IntHistogram::Add(std::int64_t value, std::int64_t weight) {
  DCN_REQUIRE(weight > 0, "IntHistogram::Add weight must be positive");
  buckets_[value] += weight;
  total_ += weight;
}

void IntHistogram::Merge(const IntHistogram& other) {
  for (const auto& [value, weight] : other.buckets_) {
    buckets_[value] += weight;
    total_ += weight;
  }
}

double IntHistogram::Mean() const {
  DCN_REQUIRE(total_ > 0, "IntHistogram::Mean on empty histogram");
  double acc = 0.0;
  for (const auto& [value, weight] : buckets_) {
    acc += static_cast<double>(value) * static_cast<double>(weight);
  }
  return acc / static_cast<double>(total_);
}

std::int64_t IntHistogram::Min() const {
  DCN_REQUIRE(total_ > 0, "IntHistogram::Min on empty histogram");
  return buckets_.begin()->first;
}

std::int64_t IntHistogram::Max() const {
  DCN_REQUIRE(total_ > 0, "IntHistogram::Max on empty histogram");
  return buckets_.rbegin()->first;
}

std::int64_t IntHistogram::Percentile(double fraction) const {
  DCN_REQUIRE(total_ > 0, "IntHistogram::Percentile on empty histogram");
  DCN_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
  const double target = fraction * static_cast<double>(total_);
  std::int64_t seen = 0;
  for (const auto& [value, weight] : buckets_) {
    seen += weight;
    if (static_cast<double>(seen) >= target) return value;
  }
  return buckets_.rbegin()->first;
}

void SampleSet::Add(double value) {
  values_.push_back(value);
  sorted_ = false;
}

double SampleSet::Mean() const {
  DCN_REQUIRE(!values_.empty(), "SampleSet::Mean on empty set");
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double SampleSet::Percentile(double fraction) const {
  DCN_REQUIRE(!values_.empty(), "SampleSet::Percentile on empty set");
  DCN_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
  EnsureSorted();
  const auto rank = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(values_.size())));
  return values_[std::min(values_.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double SampleSet::Min() const {
  DCN_REQUIRE(!values_.empty(), "SampleSet::Min on empty set");
  EnsureSorted();
  return values_.front();
}

double SampleSet::Max() const {
  DCN_REQUIRE(!values_.empty(), "SampleSet::Max on empty set");
  EnsureSorted();
  return values_.back();
}

}  // namespace dcn
