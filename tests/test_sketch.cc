// obs/sketch.h: the quantile sketch honors its relative rank-error bound
// against an exact sorted reference, merges are bit-identical in any order
// and at any thread count, the heavy-hitter summary keeps the Space-Saving
// count-error guarantee against exact tallies with deterministic
// tie-breaking, and the simulators' always-on telemetry (packetsim result
// sketches, fluid's FCT sketch) matches the exact per-flow data the flight
// recorder exports.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "routing/route.h"
#include "sim/fluid.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::obs {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

class SketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flight::Disable();
    Reset();
  }
  void TearDown() override {
    flight::Disable();
    Reset();
    SetThreadCount(0);
  }
};

// Exact rank-ceil(q * n) order statistic of `values` (the quantity
// QuantileSketch::Quantile estimates).
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// A deterministic long-tailed stream: exponential spacings compounded into
// values spanning several orders of magnitude.
std::vector<double> LongTailedStream(std::uint64_t seed, std::size_t n) {
  Rng rng{seed};
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextExponential(1.0);
    values.push_back(0.05 + u * u * 100.0);
  }
  return values;
}

TEST_F(SketchTest, QuantileWithinRelativeBoundOfExactReference) {
  const std::vector<double> values = LongTailedStream(0x5eed, 20000);
  QuantileSketch sketch;
  for (double v : values) sketch.Add(v);
  ASSERT_EQ(sketch.Count(), values.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(values, q);
    const double estimate = sketch.Quantile(q);
    EXPECT_NEAR(estimate, exact, sketch.RelativeAccuracy() * exact + 1e-12)
        << "q=" << q;
  }
  EXPECT_EQ(sketch.Min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.Max(), *std::max_element(values.begin(), values.end()));
}

TEST_F(SketchTest, TinyValuesLandInTheExactZeroBucket) {
  QuantileSketch sketch;
  sketch.Add(0.0);
  sketch.Add(QuantileSketch::kMinTrackable / 2);
  sketch.Add(5.0);
  EXPECT_EQ(sketch.Count(), 3u);
  EXPECT_EQ(sketch.ZeroCount(), 2u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_NEAR(sketch.Quantile(1.0), 5.0, 5.0 * sketch.RelativeAccuracy());
}

TEST_F(SketchTest, MergeIsBitIdenticalInAnyOrder) {
  const std::vector<double> values = LongTailedStream(0xabcd, 9000);
  QuantileSketch whole;
  for (double v : values) whole.Add(v);

  // Three parts merged in two different orders, versus the single-pass
  // sketch: identical buckets, so identical readouts to the last bit.
  QuantileSketch parts[3];
  for (std::size_t i = 0; i < values.size(); ++i) parts[i % 3].Add(values[i]);
  QuantileSketch ab = parts[0];
  ab.Merge(parts[1]);
  ab.Merge(parts[2]);
  QuantileSketch cb = parts[2];
  cb.Merge(parts[1]);
  cb.Merge(parts[0]);
  for (const QuantileSketch& merged : {ab, cb}) {
    EXPECT_EQ(merged.Count(), whole.Count());
    EXPECT_EQ(merged.Min(), whole.Min());
    EXPECT_EQ(merged.Max(), whole.Max());
    const auto lhs = merged.Buckets();
    const auto rhs = whole.Buckets();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].index, rhs[i].index);
      EXPECT_EQ(lhs[i].count, rhs[i].count);
    }
    for (double q : {0.5, 0.99, 0.999}) {
      EXPECT_EQ(merged.Quantile(q), whole.Quantile(q));
    }
  }
}

TEST_F(SketchTest, SketchMetricIsThreadCountInvariant) {
  // Each chunk builds a local partial and merges it into the metric, from
  // whichever pool thread ran the chunk: the merged value must not depend on
  // the thread count or the merge order.
  auto run = [](int threads) {
    SetThreadCount(threads);
    Reset();
    static SketchMetric& metric = GetQuantileSketch("test/sketch_invariance");
    ParallelFor(5000, 13, [](std::size_t begin, std::size_t end) {
      QuantileSketch partial;
      for (std::size_t i = begin; i < end; ++i) {
        partial.Add(0.1 + static_cast<double>(i % 257));
      }
      metric.Merge(partial);
    });
    return metric.Merged();
  };
  const QuantileSketch at1 = run(1);
  for (int threads : {3, 7}) {
    const QuantileSketch at_n = run(threads);
    EXPECT_EQ(at_n.Count(), at1.Count());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(at_n.Quantile(q), at1.Quantile(q)) << "threads=" << threads;
    }
    EXPECT_EQ(at_n.ApproxMean(), at1.ApproxMean());
  }
}

TEST_F(SketchTest, HeavyHittersKeepTheSpaceSavingGuarantee) {
  // Zipf-ish skew over 200 keys into a capacity-16 summary.
  Rng rng{0x70b5};
  std::map<std::int64_t, std::uint64_t> exact;
  HeavyHitters hitters{16};
  for (std::size_t i = 0; i < 30000; ++i) {
    const auto r = static_cast<double>(rng.NextUint64(1u << 20)) /
                   static_cast<double>(1u << 20);
    const auto key = static_cast<std::int64_t>(200.0 * r * r * r);
    ++exact[key];
    hitters.Add(key);
  }
  const std::uint64_t total = hitters.TotalWeight();
  EXPECT_EQ(total, 30000u);
  EXPECT_LE(hitters.Floor(), total / hitters.Capacity());
  for (const HeavyHitters::Entry& entry : hitters.Top()) {
    const std::uint64_t truth = exact[entry.key];
    EXPECT_LE(truth, entry.count);
    EXPECT_GE(truth + entry.error, entry.count);
    EXPECT_LE(entry.error, total / hitters.Capacity());
  }
  // Every key whose true weight beats the guarantee threshold is tracked.
  std::vector<std::int64_t> tracked;
  for (const auto& entry : hitters.Top()) tracked.push_back(entry.key);
  for (const auto& [key, truth] : exact) {
    if (truth > total / hitters.Capacity()) {
      EXPECT_NE(std::find(tracked.begin(), tracked.end(), key), tracked.end())
          << "heavy key " << key << " missing";
    }
  }
}

TEST_F(SketchTest, HeavyHittersTieBreakByKeyIsDeterministic) {
  HeavyHitters hitters{2};
  hitters.Add(10, 5);
  hitters.Add(20, 3);
  hitters.Add(30, 3);  // evicts the min-count entry with the LARGEST key (20)
  const auto top = hitters.Top();
  ASSERT_EQ(top.size(), 2u);
  // Key 30 inherited the evicted count (3) plus its own weight, with the
  // inherited count as its error bound: 3 <= true(30) <= 6.
  EXPECT_EQ(top[0].key, 30);
  EXPECT_EQ(top[0].count, 6u);
  EXPECT_EQ(top[0].error, 3u);
  EXPECT_EQ(top[1].key, 10);
  EXPECT_EQ(top[1].count, 5u);
  EXPECT_EQ(top[1].error, 0u);
  // Equal counts order by ascending key.
  HeavyHitters ties{4};
  ties.Add(7, 2);
  ties.Add(3, 2);
  ties.Add(5, 2);
  const auto tied = ties.Top();
  ASSERT_EQ(tied.size(), 3u);
  EXPECT_EQ(tied[0].key, 3);
  EXPECT_EQ(tied[1].key, 5);
  EXPECT_EQ(tied[2].key, 7);
}

TEST_F(SketchTest, HeavyHittersMergeIsCommutative) {
  HeavyHitters a{4};
  HeavyHitters b{4};
  Rng rng{0x3141};
  for (std::size_t i = 0; i < 500; ++i) {
    a.Add(static_cast<std::int64_t>(rng.NextUint64(12)));
    b.Add(static_cast<std::int64_t>(rng.NextUint64(9)));
  }
  HeavyHitters ab = a;
  ab.Merge(b);
  HeavyHitters ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab.TotalWeight(), ba.TotalWeight());
  EXPECT_EQ(ab.Floor(), ba.Floor());
  const auto lhs = ab.Top();
  const auto rhs = ba.Top();
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].key, rhs[i].key);
    EXPECT_EQ(lhs[i].count, rhs[i].count);
    EXPECT_EQ(lhs[i].error, rhs[i].error);
  }
}

// ---------------------------------------------------------------------------
// Simulator telemetry.

TEST_F(SketchTest, PacketsimTelemetryIsThreadCountInvariant) {
  const topo::Abccc net{topo::AbcccParams{2, 1, 2}};
  Rng traffic_rng{0x7e1e};
  const std::vector<Route> routes =
      sim::NativeRoutes(net, sim::PermutationTraffic(net, traffic_rng));
  const Graph& g = net.Network();
  sim::PacketSimConfig config;
  config.duration = 120.0;
  config.warmup = 20.0;
  config.offered_load = 0.9;

  auto run = [&](int threads) {
    SetThreadCount(threads);
    Reset();
    return sim::RunPacketSim(g, routes, config);
  };
  const sim::PacketSimResult at1 = run(1);
  EXPECT_GT(at1.telemetry.latency.Count(), 0u);
  EXPECT_EQ(at1.telemetry.latency.Count(), at1.delivered);
  EXPECT_GE(at1.telemetry.slowdown.Quantile(0.5), 1.0);
  for (int threads : {3, 7}) {
    const sim::PacketSimResult at_n = run(threads);
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
      EXPECT_EQ(at_n.telemetry.latency.Quantile(q),
                at1.telemetry.latency.Quantile(q))
          << "threads=" << threads;
      EXPECT_EQ(at_n.telemetry.slowdown.Quantile(q),
                at1.telemetry.slowdown.Quantile(q))
          << "threads=" << threads;
    }
    const auto links1 = at1.telemetry.hot_links.Top();
    const auto linksN = at_n.telemetry.hot_links.Top();
    ASSERT_EQ(linksN.size(), links1.size());
    for (std::size_t i = 0; i < links1.size(); ++i) {
      EXPECT_EQ(linksN[i].key, links1[i].key);
      EXPECT_EQ(linksN[i].count, links1[i].count);
    }
    const auto flows1 = at1.telemetry.elephant_flows.Top();
    const auto flowsN = at_n.telemetry.elephant_flows.Top();
    ASSERT_EQ(flowsN.size(), flows1.size());
    for (std::size_t i = 0; i < flows1.size(); ++i) {
      EXPECT_EQ(flowsN[i].key, flows1[i].key);
      EXPECT_EQ(flowsN[i].count, flows1[i].count);
    }
  }
  // The registry saw the same merge (flushed from the calling thread).
  const auto rows = TakeSketchSnapshot();
  bool found = false;
  for (const SketchRow& row : rows) {
    if (row.name == "packetsim/latency") {
      found = true;
      EXPECT_EQ(row.sketch.Count(), at1.telemetry.latency.Count());
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SketchTest, FctSummarySketchAgreesWithPerFlowCsvRecords) {
  // One fabric, several flows of mixed size, one unroutable: the bounded
  // --fct-summary sketch and the per-flow --fct-csv records must tell the
  // same story.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  std::vector<Route> routes{Route{{0, 2, 3}}, Route{{1, 2, 3}}, Route{{0, 2, 1}},
                            Route{}};
  std::vector<double> bytes{8.0, 4.0, 2.0, 1.0};

  flight::Config config;
  config.fct = true;
  config.fct_summary = true;
  flight::Enable(config);
  sim::FluidCompletionTimes(g, routes, bytes);
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  const flight::RunSnapshot& run = runs[0];

  // Exact quantiles from the per-flow records (the CSV export's source).
  std::vector<double> finite;
  std::uint64_t unroutable = 0;
  for (const flight::FlowRecord& flow : run.flows) {
    if (std::isfinite(flow.value)) {
      finite.push_back(flow.value);
    } else {
      ++unroutable;
    }
  }
  ASSERT_EQ(finite.size(), 3u);
  EXPECT_EQ(unroutable, 1u);
  EXPECT_EQ(run.unroutable, unroutable);
  EXPECT_EQ(run.fct_sketch.Count(), finite.size());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = ExactQuantile(finite, q);
    EXPECT_NEAR(run.fct_sketch.Quantile(q), exact,
                run.fct_sketch.RelativeAccuracy() * exact + 1e-12)
        << "q=" << q;
  }

  // The summary table renders without the per-flow materialization.
  std::ostringstream summary;
  flight::WriteFctSummary(summary, runs);
  EXPECT_NE(summary.str().find("fluid"), std::string::npos);
  EXPECT_NE(summary.str().find("p999"), std::string::npos);
}

TEST_F(SketchTest, FctSummaryAloneKeepsPerFlowRecordsOff) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  flight::Config config;
  config.fct_summary = true;  // no per-flow CSV materialization
  flight::Enable(config);
  sim::FluidCompletionTimes(g, {Route{{0, 1}}, Route{}}, {4.0, 2.0});
  const std::vector<flight::RunSnapshot> runs = flight::TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].flows.empty());  // bounded memory: sketch only
  EXPECT_EQ(runs[0].fct_sketch.Count(), 1u);
  EXPECT_EQ(runs[0].unroutable, 1u);
  const double fct = runs[0].fct_sketch.Quantile(1.0);
  EXPECT_NEAR(fct, 4.0, 4.0 * runs[0].fct_sketch.RelativeAccuracy());
}

}  // namespace
}  // namespace dcn::obs
