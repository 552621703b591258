#include "obs/sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace dcn::obs {

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy),
      gamma_((1.0 + relative_accuracy) / (1.0 - relative_accuracy)),
      inv_log_gamma_(1.0 / std::log(gamma_)) {
  DCN_REQUIRE(relative_accuracy > 0.0 && relative_accuracy < 1.0,
              "quantile sketch relative accuracy must be in (0, 1)");
}

std::int32_t QuantileSketch::IndexOf(double value) const {
  // Bucket i holds (gamma^(i-1), gamma^i]. std::log is a pure function of the
  // value, so the index — and with it every merged readout — is independent
  // of which thread computed it.
  return static_cast<std::int32_t>(std::ceil(std::log(value) * inv_log_gamma_));
}

double QuantileSketch::BucketEstimate(std::int32_t index) const {
  // The point of (gamma^(i-1), gamma^i] whose worst-case relative error over
  // the bucket is exactly alpha.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::AddBucket(std::int32_t index, std::uint64_t weight) {
  if (counts_.empty()) {
    lo_ = index;
    counts_.push_back(weight);
    return;
  }
  if (index < lo_) {
    counts_.insert(counts_.begin(), static_cast<std::size_t>(lo_ - index), 0);
    lo_ = index;
  } else if (const auto slot = static_cast<std::size_t>(index - lo_);
             slot >= counts_.size()) {
    counts_.resize(slot + 1, 0);
  }
  counts_[static_cast<std::size_t>(index - lo_)] += weight;
}

void QuantileSketch::Add(double value, std::uint64_t weight) {
  DCN_REQUIRE(std::isfinite(value) && value >= 0.0,
              "quantile sketch values must be finite and non-negative");
  if (weight == 0) return;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  if (value < kMinTrackable) {
    zero_ += weight;
  } else {
    AddBucket(IndexOf(value), weight);
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  DCN_REQUIRE(alpha_ == other.alpha_,
              "cannot merge quantile sketches with different accuracies");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_ += other.zero_;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    if (other.counts_[i] != 0) {
      AddBucket(other.lo_ + static_cast<std::int32_t>(i), other.counts_[i]);
    }
  }
}

double QuantileSketch::Min() const { return count_ == 0 ? 0.0 : min_; }
double QuantileSketch::Max() const { return count_ == 0 ? 0.0 : max_; }

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double want = std::ceil(q * static_cast<double>(count_));
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, std::min(static_cast<std::uint64_t>(want), count_));
  std::uint64_t cum = zero_;
  if (cum >= rank) return min_;  // the rank falls inside the zero bucket
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank) {
      const double est = BucketEstimate(lo_ + static_cast<std::int32_t>(i));
      return std::clamp(est, min_, max_);
    }
  }
  return max_;
}

double QuantileSketch::ApproxMean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;  // ascending bucket order: identical for any merge tree
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      sum += static_cast<double>(counts_[i]) *
             BucketEstimate(lo_ + static_cast<std::int32_t>(i));
    }
  }
  return sum / static_cast<double>(count_);
}

std::vector<QuantileSketch::Bucket> QuantileSketch::Buckets() const {
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) {
      buckets.push_back({lo_ + static_cast<std::int32_t>(i), counts_[i]});
    }
  }
  return buckets;
}

// ---------------------------------------------------------------------------
// HeavyHitters

HeavyHitters::HeavyHitters(std::size_t capacity) : capacity_(capacity) {
  DCN_REQUIRE(capacity >= 1, "heavy-hitter capacity must be >= 1");
}

void HeavyHitters::Add(std::int64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  if (const auto it = entries_.find(key); it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    // A fresh key could have appeared up to floor_ times before tracking
    // started (floor_ > 0 only after evictions or merges).
    entries_.emplace(key, Counts{weight + floor_, floor_});
    return;
  }
  // Space-Saving eviction: replace the minimum-count entry; among equal
  // minima the LARGEST key leaves, so smaller keys are the stable survivors.
  auto victim = entries_.begin();
  for (auto it = std::next(entries_.begin()); it != entries_.end(); ++it) {
    if (it->second.count <= victim->second.count) victim = it;
  }
  const std::uint64_t inherited = victim->second.count;
  entries_.erase(victim);
  entries_.emplace(key, Counts{inherited + weight, inherited});
  floor_ = std::max(floor_, inherited);
}

void HeavyHitters::Merge(const HeavyHitters& other) {
  DCN_REQUIRE(capacity_ == other.capacity_,
              "cannot merge heavy-hitter summaries with different capacities");
  DCN_REQUIRE(this != &other, "cannot merge a heavy-hitter summary into itself");
  // Mergeable-summaries union: a key absent from one side may have occurred
  // up to that side's floor times there.
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + other.entries_.size());
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() || b != other.entries_.end()) {
    if (b == other.entries_.end() ||
        (a != entries_.end() && a->first < b->first)) {
      merged.push_back({a->first, a->second.count + other.floor_,
                        a->second.error + other.floor_});
      ++a;
    } else if (a == entries_.end() || b->first < a->first) {
      merged.push_back(
          {b->first, b->second.count + floor_, b->second.error + floor_});
      ++b;
    } else {
      merged.push_back({a->first, a->second.count + b->second.count,
                        a->second.error + b->second.error});
      ++a;
      ++b;
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Entry& x, const Entry& y) {
    return x.count != y.count ? x.count > y.count : x.key < y.key;
  });
  std::uint64_t floor = floor_ + other.floor_;
  entries_.clear();
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i < capacity_) {
      entries_.emplace(merged[i].key, Counts{merged[i].count, merged[i].error});
    } else {
      floor = std::max(floor, merged[i].count);
    }
  }
  floor_ = floor;
  total_ += other.total_;
}

std::vector<HeavyHitters::Entry> HeavyHitters::Top() const {
  std::vector<Entry> top;
  top.reserve(entries_.size());
  for (const auto& [key, counts] : entries_) {
    top.push_back({key, counts.count, counts.error});
  }
  std::sort(top.begin(), top.end(), [](const Entry& x, const Entry& y) {
    return x.count != y.count ? x.count > y.count : x.key < y.key;
  });
  return top;
}

}  // namespace dcn::obs
