// The obs/ determinism contract: merged counter/gauge/histogram values are
// bit-identical at any thread count, handles (summary metrics included)
// survive Reset(), re-registration must agree on parameters, timers nest,
// trace capture emits per-lane monotone events — and enabling any of it
// never changes a simulation's results.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "graph/graph.h"
#include "metrics/path_metrics.h"
#include "obs/report.h"
#include "obs/rollup.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "routing/route.h"
#include "sim/packetsim.h"
#include "topology/abccc.h"

namespace dcn::obs {
namespace {

// Restores a clean obs state around every test: metrics zeroed, spans and
// trace capture off, pool back to automatic sizing.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnableSpans(false);
    Reset();
  }
  void TearDown() override {
    EnableSpans(false);
    Reset();
    SetThreadCount(0);
  }
};

// A deterministic parallel workload touching one counter, one gauge, and one
// histogram: what each index contributes depends only on the index, so the
// merged values must not depend on how chunks land on threads.
void RunShardWorkload() {
  static Counter& touched = GetCounter("test/touched");
  static Gauge& high_water = GetGauge("test/high_water");
  static Histogram& residues = GetHistogram("test/residues");
  ParallelFor(1000, 7, [](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched.Add(i % 3 == 0 ? 2 : 1);
      high_water.Set(static_cast<std::int64_t>(i));
      residues.Add(static_cast<std::int64_t>(i % 11));
    }
  });
}

TEST_F(ObsTest, ShardMergeIsThreadCountInvariant) {
  std::uint64_t counter_at_1 = 0;
  Histogram::Snapshot hist_at_1;
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    Reset();
    RunShardWorkload();
    const std::uint64_t counter = CounterValue("test/touched");
    const Histogram::Snapshot hist = GetHistogram("test/residues").Value();
    // 334 indices divisible by 3 contribute 2, the other 666 contribute 1.
    EXPECT_EQ(counter, 334u * 2 + 666u) << "threads=" << threads;
    EXPECT_EQ(GetGauge("test/high_water").Value(), 999);
    EXPECT_EQ(hist.count, 1000u);
    if (threads == 1) {
      counter_at_1 = counter;
      hist_at_1 = hist;
      continue;
    }
    EXPECT_EQ(counter, counter_at_1) << "threads=" << threads;
    EXPECT_EQ(hist.sum, hist_at_1.sum) << "threads=" << threads;
    EXPECT_EQ(hist.max, hist_at_1.max) << "threads=" << threads;
    EXPECT_EQ(hist.overflow, hist_at_1.overflow) << "threads=" << threads;
    EXPECT_EQ(hist.buckets, hist_at_1.buckets) << "threads=" << threads;
  }
}

TEST_F(ObsTest, InstrumentedKernelCountersAreThreadCountInvariant) {
  // End-to-end flavor of the same contract: the MS-BFS level counters of a
  // real metric sweep, merged across pool shards, at 1/3/7 threads.
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  std::vector<std::uint64_t> baseline;
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    Reset();
    (void)metrics::ExactServerPathStats(net);
    const std::vector<std::uint64_t> values = {
        CounterValue("msbfs/batches"), CounterValue("msbfs/lanes"),
        CounterValue("msbfs/levels_top_down"),
        CounterValue("msbfs/levels_bottom_up"),
        CounterValue("msbfs/direction_switches")};
    EXPECT_GT(values[0], 0u);
    EXPECT_GT(values[2] + values[3], 0u);
    if (baseline.empty()) {
      baseline = values;
    } else {
      EXPECT_EQ(values, baseline) << "threads=" << threads;
    }
  }
}

TEST_F(ObsTest, HistogramClampsNegativesAndTracksOverflowExactly) {
  Histogram& hist = GetHistogram("test/edge_values");
  hist.Add(-5);                              // clamped into bucket 0
  hist.Add(Histogram::kMaxExactValue);       // last exact bucket
  hist.Add(Histogram::kMaxExactValue + 73);  // overflow, exact sum/max
  hist.Add(3, 4);                            // weighted
  const Histogram::Snapshot snap = hist.Value();
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.overflow, 1u);
  EXPECT_EQ(snap.max, Histogram::kMaxExactValue + 73);
  EXPECT_EQ(snap.sum, 0 + Histogram::kMaxExactValue +
                          (Histogram::kMaxExactValue + 73) + 3 * 4);
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {
      {0, 1}, {3, 4}, {Histogram::kMaxExactValue, 1}};
  EXPECT_EQ(snap.buckets, expected);
}

TEST_F(ObsTest, GaugeMergesToMaxAndReportsUnset) {
  Gauge& gauge = GetGauge("test/unset_then_set");
  EXPECT_EQ(gauge.Value(-7), -7);  // fallback before any Set
  SetThreadCount(3);
  ParallelFor(8, 1, [&](std::size_t begin, std::size_t) {
    gauge.Set(static_cast<std::int64_t>(begin * 10));
  });
  EXPECT_EQ(gauge.Value(), 70);
}

TEST_F(ObsTest, SpansDisabledRecordNothing) {
  { OBS_SPAN("test/disabled_span"); }
  const Snapshot snap = TakeSnapshot();
  for (const TimerRow& row : snap.timers) {
    if (row.name == "test/disabled_span") {
      EXPECT_EQ(row.count, 0u);
      EXPECT_EQ(row.total_ns, 0u);
    }
  }
}

TEST_F(ObsTest, TimerNestingAggregatesPerSite) {
  EnableSpans(true);
  {
    OBS_SPAN("test/outer");
    for (int i = 0; i < 3; ++i) {
      OBS_SPAN("test/inner");
    }
  }
  const Snapshot snap = TakeSnapshot();
  std::uint64_t outer_count = 0, inner_count = 0;
  std::uint64_t outer_ns = 0, inner_ns = 0;
  for (const TimerRow& row : snap.timers) {
    if (row.name == "test/outer") {
      outer_count = row.count;
      outer_ns = row.total_ns;
    }
    if (row.name == "test/inner") {
      inner_count = row.count;
      inner_ns = row.total_ns;
    }
  }
  EXPECT_EQ(outer_count, 1u);
  EXPECT_EQ(inner_count, 3u);
  // The outer span encloses all three inner spans.
  EXPECT_GE(outer_ns, inner_ns);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsHandlesAndRegistration) {
  Counter& counter = GetCounter("test/reset_me");
  SketchMetric& sketch = GetQuantileSketch("test/reset_sketch");
  HeavyHittersMetric& hitters = GetHeavyHitters("test/reset_hitters", 4);
  RollupMetric& rollup = GetRollup("test/reset_rollup", LinkRollupLevels());
  const std::array<std::int64_t, 4> groups{7, 3, 1, 0};

  counter.Add(41);
  QuantileSketch latencies;
  latencies.Add(2.5);
  latencies.Add(9.0);
  sketch.Merge(latencies);
  HeavyHitters hot{4};
  hot.Add(11, 5);
  hitters.Merge(hot);
  Rollup links = MakeLinkRollup();
  links.Add(groups, 6);
  rollup.Merge(links);
  EXPECT_EQ(counter.Value(), 41u);
  EXPECT_EQ(sketch.Merged().Count(), 2u);
  EXPECT_EQ(hitters.Merged().TotalWeight(), 5u);
  EXPECT_EQ(rollup.Merged().Level(0).size(), 1u);

  Reset();
  // Handles still valid, values empty.
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(sketch.Merged().Count(), 0u);
  EXPECT_TRUE(hitters.Merged().Top().empty());
  EXPECT_EQ(hitters.Merged().TotalWeight(), 0u);
  EXPECT_EQ(hitters.Merged().Capacity(), 4u);
  EXPECT_TRUE(rollup.Merged().Level(0).empty());
  EXPECT_EQ(rollup.Merged().LevelCount(), 4u);

  // ... and they accept new data.
  counter.Add(1);
  QuantileSketch one;
  one.Add(4.0);
  sketch.Merge(one);
  HeavyHitters other{4};
  other.Add(12, 2);
  hitters.Merge(other);
  rollup.Merge(links);
  EXPECT_EQ(counter.Value(), 1u);
  EXPECT_EQ(sketch.Merged().Count(), 1u);
  EXPECT_EQ(sketch.Merged().Max(), 4.0);
  ASSERT_EQ(hitters.Merged().Top().size(), 1u);
  EXPECT_EQ(hitters.Merged().Top()[0].key, 12);
  EXPECT_EQ(rollup.Merged().Level(0).at(7).total, 6);

  // Registrations survive.
  EXPECT_EQ(&GetCounter("test/reset_me"), &counter);
  EXPECT_EQ(&GetQuantileSketch("test/reset_sketch"), &sketch);
  EXPECT_EQ(&GetHeavyHitters("test/reset_hitters", 4), &hitters);
  EXPECT_EQ(&GetRollup("test/reset_rollup", LinkRollupLevels()), &rollup);
  bool found = false;
  for (const CounterRow& row : TakeSnapshot().counters) {
    found = found || row.name == "test/reset_me";
  }
  EXPECT_TRUE(found);
  found = false;
  for (const SketchRow& row : TakeSketchSnapshot()) {
    found = found || row.name == "test/reset_sketch";
  }
  EXPECT_TRUE(found);
  found = false;
  for (const HeavyHittersRow& row : TakeHeavyHittersSnapshot()) {
    found = found || row.name == "test/reset_hitters";
  }
  EXPECT_TRUE(found);
  found = false;
  for (const RollupRow& row : TakeRollupSnapshot()) {
    found = found || row.name == "test/reset_rollup";
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, SummaryReRegistrationMustMatchParameters) {
  GetQuantileSketch("test/rereg_sketch", 0.01);
  EXPECT_NO_THROW(GetQuantileSketch("test/rereg_sketch", 0.01));
  EXPECT_THROW(GetQuantileSketch("test/rereg_sketch", 0.02), InvalidArgument);

  GetHeavyHitters("test/rereg_hitters", 8);
  EXPECT_NO_THROW(GetHeavyHitters("test/rereg_hitters", 8));
  EXPECT_THROW(GetHeavyHitters("test/rereg_hitters", 16), InvalidArgument);

  GetRollup("test/rereg_rollup", LinkRollupLevels());
  EXPECT_NO_THROW(GetRollup("test/rereg_rollup", LinkRollupLevels()));
  const std::vector<std::string> other_chain{"link", "node"};
  EXPECT_THROW(GetRollup("test/rereg_rollup", other_chain), InvalidArgument);
}

TEST_F(ObsTest, TraceCaptureEmitsPerLaneMonotoneEvents) {
  EnableTraceCapture(true);
  SetThreadCount(3);
  ParallelFor(64, 4, [](std::size_t, std::size_t) {
    OBS_SPAN("test/trace_chunk");
    std::atomic<int> sink{0};
    for (int i = 0; i < 100; ++i) sink.fetch_add(i, std::memory_order_relaxed);
  });
  const Snapshot snap = TakeSnapshot();
  ASSERT_FALSE(snap.trace.empty());
  for (std::size_t i = 1; i < snap.trace.size(); ++i) {
    const TraceEvent& prev = snap.trace[i - 1];
    const TraceEvent& cur = snap.trace[i];
    ASSERT_TRUE(prev.tid < cur.tid ||
                (prev.tid == cur.tid && prev.start_ns <= cur.start_ns))
        << "trace events not sorted by (tid, start) at index " << i;
    ASSERT_LT(cur.site, snap.span_names.size());
  }

  std::ostringstream json;
  WriteChromeTrace(json, snap);
  const std::string text = json.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("test/trace_chunk"), std::string::npos);

  // Disabling capture stops buffering; existing registrations stay.
  EnableTraceCapture(false);
  EXPECT_TRUE(SpansEnabled());  // capture off, aggregate timing still on
  EnableSpans(false);
  EXPECT_FALSE(TraceCaptureEnabled());
}

// Trace lanes follow thread names, not the race to touch obs first: a thread
// that names itself "pool-worker-1" before another names itself
// "pool-worker-0" still gets the later lane, and the main thread keeps lane 0.
TEST_F(ObsTest, TraceLanesFollowThreadNames) {
  GetCounter("test/lane_main").Add(1);  // the main thread touches obs
  for (const char* name : {"pool-worker-1", "pool-worker-0"}) {
    std::thread([name] { SetCurrentThreadName(name); }).join();
  }
  const Snapshot snap = TakeSnapshot();
  ASSERT_FALSE(snap.threads.empty());
  EXPECT_EQ(snap.threads.front(), (std::pair<int, std::string>{0, "main"}));
  int last_worker0 = -1;
  int first_worker1 = static_cast<int>(snap.threads.size());
  for (std::size_t i = 0; i < snap.threads.size(); ++i) {
    const auto& [tid, name] = snap.threads[i];
    EXPECT_EQ(tid, static_cast<int>(i));
    if (name == "pool-worker-0") last_worker0 = tid;
    if (name == "pool-worker-1") first_worker1 = std::min(first_worker1, tid);
  }
  EXPECT_GE(last_worker0, 0);
  EXPECT_LT(last_worker0, first_worker1);
}

TEST_F(ObsTest, CounterValueOfUnknownNameIsZero) {
  EXPECT_EQ(CounterValue("test/never_registered"), 0u);
}

TEST_F(ObsTest, PacketSimResultsAreIdenticalWithObsEnabled) {
  // Two sources overload one link so generation, drops, queue growth, and
  // delivery are all exercised; obs must observe without perturbing.
  graph::Graph g;
  g.AddNode(graph::NodeKind::kServer);  // 0
  g.AddNode(graph::NodeKind::kServer);  // 1
  g.AddNode(graph::NodeKind::kSwitch);  // 2
  g.AddNode(graph::NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const std::vector<routing::Route> routes = {routing::Route{{0, 2, 3}},
                                              routing::Route{{1, 2, 3}}};
  sim::PacketSimConfig config;
  config.offered_load = 0.8;
  config.duration = 800;
  config.warmup = 100;
  config.queue_capacity = 8;

  ASSERT_FALSE(SpansEnabled());
  const sim::PacketSimResult off = sim::RunPacketSim(g, routes, config);

  EnableTraceCapture(true);  // every sink on: spans + trace + counters
  Reset();
  const sim::PacketSimResult on = sim::RunPacketSim(g, routes, config);

  EXPECT_EQ(on.generated, off.generated);
  EXPECT_EQ(on.measured, off.measured);
  EXPECT_EQ(on.delivered, off.delivered);
  EXPECT_EQ(on.dropped, off.dropped);
  EXPECT_EQ(on.max_queue_depth, off.max_queue_depth);
  EXPECT_EQ(on.latency.Mean(), off.latency.Mean());
  EXPECT_EQ(on.latency.Percentile(0.5), off.latency.Percentile(0.5));
  EXPECT_EQ(on.latency.Percentile(0.99), off.latency.Percentile(0.99));
  EXPECT_EQ(on.max_link_utilization, off.max_link_utilization);
  EXPECT_EQ(on.mean_link_utilization, off.mean_link_utilization);

  // And the observation itself is consistent with the result it observed.
  EXPECT_EQ(CounterValue("packetsim/runs"), 1u);
  EXPECT_EQ(CounterValue("packetsim/generated"), on.generated);
  EXPECT_EQ(CounterValue("packetsim/delivered"), on.delivered);
  EXPECT_EQ(CounterValue("packetsim/dropped"), on.dropped);
  EXPECT_GT(CounterValue("packetsim/events"), on.generated);
  EXPECT_GT(GetHistogram("packetsim/queue_depth").Value().count, 0u);
  EXPECT_FALSE(TakeSnapshot().trace.empty());
}

TEST_F(ObsTest, StatsJsonAndReportTableRenderEveryKind) {
  GetCounter("test/json_counter").Add(5);
  GetGauge("test/json_gauge").Set(9);
  GetHistogram("test/json_hist").Add(2, 3);
  EnableSpans(true);
  { OBS_SPAN("test/json_span"); }
  const Snapshot snap = TakeSnapshot();

  std::ostringstream json;
  WriteStatsJson(json, snap);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"test/json_counter\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"test/json_gauge\": 9"), std::string::npos);
  EXPECT_NE(text.find("\"test/json_hist\""), std::string::npos);
  EXPECT_NE(text.find("\"test/json_span\""), std::string::npos);

  std::ostringstream table;
  ReportTable(snap).Print(table, "obs test");
  EXPECT_NE(table.str().find("test/json_counter"), std::string::npos);
  EXPECT_NE(table.str().find("test/json_span"), std::string::npos);
}

TEST_F(ObsTest, ReportTableTimerMeanIsInMilliseconds) {
  // timer-ms rows: value is the total in ms, mean = value / count, also ms.
  Snapshot snap;
  snap.timers.push_back(TimerRow{"test/timer", 4, 10'000'000});
  std::ostringstream table;
  ReportTable(snap).Print(table, "obs test");
  std::istringstream lines{table.str()};
  std::string line;
  while (std::getline(lines, line) && line.find("test/timer") == std::string::npos) {
  }
  std::vector<std::string> cells;
  std::istringstream row{line};
  for (std::string cell; std::getline(row, cell, '|');) {
    cell.erase(0, cell.find_first_not_of(' '));
    cell.erase(cell.find_last_not_of(' ') + 1);
    cells.push_back(cell);
  }
  // "", metric, kind, count, value, mean, max
  ASSERT_GE(cells.size(), 7u) << line;
  EXPECT_EQ(cells[2], "timer-ms");
  EXPECT_EQ(cells[3], "4");
  EXPECT_EQ(cells[4], "10.000");
  EXPECT_EQ(cells[5], "2.500");
}

}  // namespace
}  // namespace dcn::obs
