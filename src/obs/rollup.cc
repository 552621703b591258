#include "obs/rollup.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/error.h"

namespace dcn::obs {

Rollup::Rollup(std::vector<std::string> level_names)
    : level_names_(std::move(level_names)), levels_(level_names_.size()) {
  DCN_REQUIRE(!level_names_.empty(), "a rollup needs at least one level");
}

void Rollup::Add(std::span<const std::int64_t> groups, std::int64_t value) {
  DCN_REQUIRE(groups.size() == level_names_.size(),
              "rollup Add needs one group id per level");
  DCN_REQUIRE(value >= 0, "rollup values must be non-negative");
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    GroupAgg& agg = levels_[level][groups[level]];
    ++agg.leaves;
    agg.total += value;
  }
}

void Rollup::Merge(const Rollup& other) {
  if (other.level_names_.empty()) return;
  if (level_names_.empty()) {
    level_names_ = other.level_names_;
    levels_.resize(level_names_.size());
  }
  DCN_REQUIRE(level_names_ == other.level_names_,
              "cannot merge rollups with different level chains");
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    for (const auto& [key, agg] : other.levels_[level]) {
      GroupAgg& mine = levels_[level][key];
      mine.leaves += agg.leaves;
      mine.total += agg.total;
    }
  }
}

const std::map<std::int64_t, Rollup::GroupAgg>& Rollup::Level(
    std::size_t level) const {
  DCN_REQUIRE(level < levels_.size(), "rollup level out of range");
  return levels_[level];
}

std::vector<Rollup::LevelSummary> Rollup::Summarize(
    std::size_t top_k, double relative_accuracy) const {
  std::vector<LevelSummary> summaries;
  summaries.reserve(levels_.size());
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    LevelSummary summary{level_names_[level],
                         0,
                         0,
                         0,
                         0,
                         0,
                         HeavyHitters{top_k},
                         QuantileSketch{relative_accuracy}};
    // Ascending group order: the summary is a pure function of the merged
    // totals, not of how they were accumulated.
    for (const auto& [key, agg] : levels_[level]) {
      ++summary.groups;
      summary.leaves += agg.leaves;
      summary.total += agg.total;
      if (summary.groups == 1 || agg.total > summary.max_group_total) {
        summary.max_group_key = key;
        summary.max_group_total = agg.total;
      }
      summary.top.Add(key, static_cast<std::uint64_t>(agg.total));
      summary.quantiles.Add(static_cast<double>(agg.total));
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

std::span<const std::string> LinkRollupLevels() {
  static const std::array<std::string, 4> kLevels{"link", "node", "tier",
                                                  "fabric"};
  return kLevels;
}

Rollup MakeLinkRollup() {
  const std::span<const std::string> levels = LinkRollupLevels();
  return Rollup{{levels.begin(), levels.end()}};
}

}  // namespace dcn::obs
