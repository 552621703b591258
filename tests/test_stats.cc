#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace dcn {
namespace {

TEST(OnlineStatsTest, EmptyThrows) {
  OnlineStats stats;
  EXPECT_EQ(stats.Count(), 0);
  EXPECT_THROW(stats.Mean(), InvalidArgument);
  EXPECT_THROW(stats.Variance(), InvalidArgument);
  EXPECT_THROW(stats.Min(), InvalidArgument);
  EXPECT_THROW(stats.Max(), InvalidArgument);
}

TEST(OnlineStatsTest, MatchesDirectComputation) {
  const std::vector<double> values{3.0, 1.5, -2.0, 7.25, 0.0, 4.5};
  OnlineStats stats;
  for (double v : values) stats.Add(v);

  double mean = 0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());

  EXPECT_EQ(stats.Count(), static_cast<std::int64_t>(values.size()));
  EXPECT_DOUBLE_EQ(stats.Mean(), mean);
  EXPECT_NEAR(stats.Variance(), var, 1e-12);
  EXPECT_NEAR(stats.Stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), -2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 7.25);
  EXPECT_NEAR(stats.Sum(), mean * static_cast<double>(values.size()), 1e-12);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats stats;
  stats.Add(5.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
}

TEST(IntHistogramTest, MeanMinMax) {
  IntHistogram hist;
  hist.Add(2);
  hist.Add(4, 3);
  EXPECT_EQ(hist.Count(), 4);
  EXPECT_DOUBLE_EQ(hist.Mean(), (2.0 + 12.0) / 4.0);
  EXPECT_EQ(hist.Min(), 2);
  EXPECT_EQ(hist.Max(), 4);
}

TEST(IntHistogramTest, PercentilesAreExact) {
  IntHistogram hist;
  for (int v = 1; v <= 100; ++v) hist.Add(v);
  EXPECT_EQ(hist.Percentile(0.01), 1);
  EXPECT_EQ(hist.Percentile(0.5), 50);
  EXPECT_EQ(hist.Percentile(0.99), 99);
  EXPECT_EQ(hist.Percentile(1.0), 100);
}

TEST(IntHistogramTest, InvalidUsesThrow) {
  IntHistogram hist;
  EXPECT_THROW(hist.Mean(), InvalidArgument);
  EXPECT_THROW(hist.Percentile(0.5), InvalidArgument);
  hist.Add(1);
  EXPECT_THROW(hist.Percentile(0.0), InvalidArgument);
  EXPECT_THROW(hist.Percentile(1.5), InvalidArgument);
  EXPECT_THROW(hist.Add(1, 0), InvalidArgument);
}

TEST(SampleSetTest, PercentileAndExtremes) {
  SampleSet set;
  for (int v = 10; v >= 1; --v) set.Add(v);
  EXPECT_EQ(set.Count(), 10u);
  EXPECT_DOUBLE_EQ(set.Mean(), 5.5);
  EXPECT_DOUBLE_EQ(set.Min(), 1.0);
  EXPECT_DOUBLE_EQ(set.Max(), 10.0);
  EXPECT_DOUBLE_EQ(set.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(set.Percentile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(set.Percentile(0.1), 1.0);
}

TEST(SampleSetTest, InterleavedAddAndQuery) {
  SampleSet set;
  set.Add(3.0);
  EXPECT_DOUBLE_EQ(set.Percentile(1.0), 3.0);
  set.Add(1.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(set.Min(), 1.0);
  EXPECT_DOUBLE_EQ(set.Percentile(1.0), 3.0);
}

TEST(SampleSetTest, EmptyThrows) {
  SampleSet set;
  EXPECT_THROW(set.Mean(), InvalidArgument);
  EXPECT_THROW(set.Percentile(0.5), InvalidArgument);
}

}  // namespace
}  // namespace dcn
