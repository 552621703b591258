// obs/flight.h: the flight recorder observes without perturbing — simulation
// results are byte-identical with the recorder on or off, sampled lifecycle
// records are identical at any thread count, the per-run latency breakdown
// decomposes exactly, FCT/rate flow records round-trip through the CSV
// export, and the Chrome trace gains matched flow start/finish events.
#include "obs/flight.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "routing/broadcast.h"
#include "routing/route.h"
#include "sim/broadcast_sim.h"
#include "sim/fluid.h"
#include "sim/flowsim.h"
#include "sim/packetsim.h"
#include "topology/abccc.h"

namespace dcn::obs::flight {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

// Every test starts with the recorder disabled and an empty run store;
// obs::Reset() clears the runs with their time series and restarts run ids.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Disable();
    Reset();
  }
  void TearDown() override {
    Disable();
    Reset();
    SetThreadCount(0);
  }
};

Graph MakeContendedFabric() {
  // Two sources share a switch toward one sink: enough contention for
  // queueing, service-start handoffs, and (at high load) drops.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  return g;
}

sim::PacketSimConfig ContendedConfig() {
  sim::PacketSimConfig config;
  config.offered_load = 0.7;
  config.duration = 600;
  config.warmup = 100;
  config.queue_capacity = 4;  // forces drops
  return config;
}

sim::PacketSimResult RunContended(const Graph& g) {
  return sim::RunPacketSim(g, {Route{{0, 2, 3}}, Route{{1, 2, 3}}},
                           ContendedConfig());
}

void ExpectSameSamples(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.Count(), b.Count());
  if (a.Count() == 0) return;
  EXPECT_DOUBLE_EQ(a.Mean(), b.Mean());
  EXPECT_DOUBLE_EQ(a.Min(), b.Min());
  EXPECT_DOUBLE_EQ(a.Max(), b.Max());
  EXPECT_DOUBLE_EQ(a.Percentile(0.5), b.Percentile(0.5));
  EXPECT_DOUBLE_EQ(a.Percentile(0.99), b.Percentile(0.99));
}

TEST_F(FlightTest, RecorderFullyOnLeavesSimResultsByteIdentical) {
  const Graph g = MakeContendedFabric();
  const sim::PacketSimResult off = RunContended(g);

  Config config;
  config.sample_rate = 0.5;
  config.bucket_width = 25.0;
  config.latency_breakdown = true;
  config.fct = true;
  Enable(config);
  const sim::PacketSimResult on = RunContended(g);

  EXPECT_EQ(off.generated, on.generated);
  EXPECT_EQ(off.measured, on.measured);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.dropped, on.dropped);
  EXPECT_EQ(off.max_queue_depth, on.max_queue_depth);
  EXPECT_DOUBLE_EQ(off.max_link_utilization, on.max_link_utilization);
  EXPECT_DOUBLE_EQ(off.mean_link_utilization, on.mean_link_utilization);
  ExpectSameSamples(off.latency, on.latency);
  EXPECT_FALSE(off.breakdown.enabled);
  EXPECT_TRUE(on.breakdown.enabled);
}

TEST_F(FlightTest, SampledRecordsAreIdenticalAtAnyThreadCount) {
  const Graph g = MakeContendedFabric();
  Config config;
  config.sample_rate = 0.3;
  config.bucket_width = 50.0;

  std::vector<RunSnapshot> at_1;
  for (const int threads : {1, 3, 7}) {
    SetThreadCount(threads);
    Reset();  // restarts run ids, so run 0 is comparable across loops
    Enable(config);
    RunContended(g);
    const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
    ASSERT_EQ(runs.size(), 1u) << "threads=" << threads;
    EXPECT_GT(runs[0].packets.size(), 10u) << "threads=" << threads;
    if (threads == 1) {
      at_1 = runs;
      continue;
    }
    ASSERT_EQ(runs[0].packets.size(), at_1[0].packets.size())
        << "threads=" << threads;
    for (std::size_t p = 0; p < runs[0].packets.size(); ++p) {
      const PacketRecord& a = at_1[0].packets[p];
      const PacketRecord& b = runs[0].packets[p];
      EXPECT_EQ(a.packet, b.packet);
      EXPECT_EQ(a.source, b.source);
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_DOUBLE_EQ(a.born, b.born);
      EXPECT_DOUBLE_EQ(a.completed, b.completed);
      ASSERT_EQ(a.hops.size(), b.hops.size());
      for (std::size_t h = 0; h < a.hops.size(); ++h) {
        EXPECT_EQ(a.hops[h].link, b.hops[h].link);
        EXPECT_EQ(a.hops[h].dropped, b.hops[h].dropped);
        EXPECT_DOUBLE_EQ(a.hops[h].enqueue, b.hops[h].enqueue);
        EXPECT_DOUBLE_EQ(a.hops[h].start, b.hops[h].start);
        EXPECT_DOUBLE_EQ(a.hops[h].depart, b.hops[h].depart);
      }
    }
    const std::vector<TimeSeriesRow>& series = runs[0].series;
    const std::vector<TimeSeriesRow>& series_at_1 = at_1[0].series;
    ASSERT_EQ(series.size(), series_at_1.size()) << "threads=" << threads;
    for (std::size_t s = 0; s < series.size(); ++s) {
      EXPECT_EQ(series[s].name, series_at_1[s].name);
      EXPECT_EQ(series[s].buckets, series_at_1[s].buckets)
          << series[s].name << " threads=" << threads;
    }
  }
}

TEST_F(FlightTest, HopTimestampsAreConsistent) {
  const Graph g = MakeContendedFabric();
  Config config;
  config.sample_rate = 1.0;
  Enable(config);
  RunContended(g);
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  std::size_t delivered = 0;
  for (const PacketRecord& packet : runs[0].packets) {
    ASSERT_FALSE(packet.hops.empty());
    double previous_depart = packet.born;
    for (const HopRecord& hop : packet.hops) {
      // enqueue at the previous hop's depart (or birth), service starts at
      // or after enqueue, departs exactly one service time later.
      EXPECT_DOUBLE_EQ(hop.enqueue, previous_depart);
      if (hop.dropped) break;
      EXPECT_GE(hop.start, hop.enqueue);
      EXPECT_DOUBLE_EQ(hop.depart, hop.start + 1.0);
      previous_depart = hop.depart;
    }
    if (packet.delivered) {
      ++delivered;
      EXPECT_EQ(packet.hops.size(), 2u);  // both fabrics are 2-link routes
      EXPECT_DOUBLE_EQ(packet.completed, packet.hops.back().depart);
    }
  }
  EXPECT_GT(delivered, 0u);
}

TEST_F(FlightTest, SamplingRateZeroAndCapAreHonored) {
  const Graph g = MakeContendedFabric();
  Config config;
  config.sample_rate = 0.0;
  Enable(config);
  RunContended(g);
  std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].packets.empty());
  EXPECT_EQ(runs[0].sampling_skipped, 0u);

  Reset();
  config.sample_rate = 1.0;
  config.max_sampled_per_run = 16;
  Enable(config);
  const sim::PacketSimResult result = RunContended(g);
  runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].packets.size(), 16u);
  EXPECT_EQ(runs[0].sampling_skipped, result.generated - 16u);
}

TEST_F(FlightTest, BreakdownDecomposesLatencyExactly) {
  const Graph g = MakeContendedFabric();
  Config config;
  config.latency_breakdown = true;
  Enable(config);
  const sim::PacketSimResult result = RunContended(g);
  const LatencyBreakdown& bd = result.breakdown;
  ASSERT_TRUE(bd.enabled);
  EXPECT_EQ(bd.total.Count(), result.delivered);
  EXPECT_EQ(bd.queueing.Count(), result.delivered);
  EXPECT_EQ(static_cast<std::uint64_t>(bd.hops.Count()), result.delivered);
  // total = queueing + hops * service_time holds per packet, hence in means.
  EXPECT_NEAR(bd.total.Mean(),
              bd.queueing.Mean() + bd.hops.Mean() * bd.service_time, 1e-9);
  EXPECT_NEAR(bd.MeanSerialization(), bd.hops.Mean() * 1.0, 1e-12);
  ExpectSameSamples(bd.total, result.latency);
  EXPECT_GT(bd.QueueingShare(), 0.0);
  EXPECT_LT(bd.QueueingShare(), 1.0);
}

TEST_F(FlightTest, FluidRecordsCompletionTimesIncludingUnroutable) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  Config config;
  config.fct = true;
  Enable(config);
  // Flow 1 has an empty route: unroutable, records +inf.
  sim::FluidCompletionTimes(g, {Route{{0, 1}}, Route{}}, {4.0, 2.0});
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  // The inner MaxMinFairRates calls must NOT have opened their own runs.
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].sim, "fluid");
  ASSERT_EQ(runs[0].flows.size(), 2u);
  EXPECT_EQ(runs[0].flows[0].kind, FlowKind::kFct);
  EXPECT_DOUBLE_EQ(runs[0].flows[0].bytes, 4.0);
  EXPECT_DOUBLE_EQ(runs[0].flows[0].value, 4.0);  // lone flow at capacity 1
  EXPECT_TRUE(std::isinf(runs[0].flows[1].value));

  std::ostringstream csv;
  WriteFctCsv(csv, runs);
  EXPECT_EQ(csv.str(),
            "run,sim,kind,flow,bytes,finish_time,rate\n"
            "0,fluid,fct,0,4,4,1\n"
            "0,fluid,fct,1,2,inf,0\n");
}

TEST_F(FlightTest, FlowsimRecordsMaxMinRates) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  Config config;
  config.fct = true;
  Enable(config);
  sim::MaxMinFairRates(g, {Route{{0, 1}}, Route{{0, 1}}});
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].sim, "flowsim");
  ASSERT_EQ(runs[0].flows.size(), 2u);
  EXPECT_EQ(runs[0].flows[0].kind, FlowKind::kRate);
  EXPECT_DOUBLE_EQ(runs[0].flows[0].value, 0.5);
  EXPECT_DOUBLE_EQ(runs[0].flows[1].value, 0.5);
}

TEST_F(FlightTest, TraceExportEmitsMatchedFlowEvents) {
  const Graph g = MakeContendedFabric();
  Config config;
  config.sample_rate = 0.5;
  Enable(config);
  RunContended(g);
  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_FALSE(runs[0].packets.empty());
  ASSERT_FALSE(runs[0].lanes.empty());

  std::ostringstream out;
  WriteChromeTrace(out, Snapshot{}, runs);
  const std::string trace = out.str();
  const auto count = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = trace.find(needle); pos != std::string::npos;
         pos = trace.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  // One start and one finish per sampled packet, and at least one complete
  // event per recorded hop.
  EXPECT_EQ(count("\"ph\": \"s\""), runs[0].packets.size());
  EXPECT_EQ(count("\"ph\": \"f\""), runs[0].packets.size());
  EXPECT_GE(count("\"cat\": \"flight\""), 3 * runs[0].packets.size());
  EXPECT_EQ(count("\"name\": \"process_name\""), 1u);
  // Lane metadata names the directed links ("0->2" is route 0's first hop).
  EXPECT_NE(trace.find("\"name\": \"0->2\""), std::string::npos);
}

TEST_F(FlightTest, NestedRunScopesRecordNothing) {
  Config config;
  config.fct = true;
  Enable(config);
  RunScope outer{"outer", 10.0};
  ASSERT_NE(outer.recorder(), nullptr);
  RunScope inner{"inner", 10.0};
  EXPECT_EQ(inner.recorder(), nullptr);
}

TEST_F(FlightTest, BroadcastSimRecordsCopiesAndStaysIdentical) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  const routing::SpanningTree tree = routing::AbcccBroadcastTree(net, 0);
  sim::BroadcastSimConfig config;
  config.message_rate = 0.05;
  config.duration = 1500;
  config.warmup = 200;
  const sim::BroadcastSimResult off =
      sim::RunBroadcastSim(net.Network(), tree, config);

  Config flight_config;
  flight_config.sample_rate = 0.25;
  flight_config.bucket_width = 100.0;
  Enable(flight_config);
  const sim::BroadcastSimResult on =
      sim::RunBroadcastSim(net.Network(), tree, config);

  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.measured, on.measured);
  EXPECT_EQ(off.complete, on.complete);
  EXPECT_EQ(off.copies_dropped, on.copies_dropped);
  ExpectSameSamples(off.delivery_latency, on.delivery_latency);
  ExpectSameSamples(off.completion_latency, on.completion_latency);

  const std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].sim, "broadcast");
  EXPECT_GT(runs[0].packets.size(), 10u);
  for (const PacketRecord& copy : runs[0].packets) {
    // Copies traverse exactly their 2-link segment (or fewer if dropped).
    EXPECT_LE(copy.hops.size(), 2u);
    EXPECT_GE(copy.hops.size(), 1u);
  }
}

TEST_F(FlightTest, ResetRestartsRunIds) {
  Config config;
  config.fct = true;
  config.bucket_width = 10.0;
  Enable(config);
  {
    // Run 0 opens first but touches its series last, after run 1 ran on
    // another thread: each run keeps its own series.
    RunScope a{"a", 20.0};
    ASSERT_NE(a.recorder(), nullptr);
    std::thread other{[] {
      RunScope b{"b", 20.0};
      b.recorder()->InFlight(5.0, 2);
    }};
    other.join();
    a.recorder()->InFlight(15.0, 3);
  }
  std::vector<RunSnapshot> runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].run, 0);
  EXPECT_EQ(runs[1].run, 1);
  ASSERT_EQ(runs[0].series.size(), 1u);
  EXPECT_EQ(runs[0].series[0].name, "run0/a/in_flight");
  EXPECT_EQ(runs[0].series[0].buckets, (std::vector<std::int64_t>{0, 3}));
  ASSERT_EQ(runs[1].series.size(), 1u);
  EXPECT_EQ(runs[1].series[0].name, "run1/b/in_flight");
  EXPECT_EQ(runs[1].series[0].buckets, (std::vector<std::int64_t>{2}));
  Reset();
  EXPECT_TRUE(TakeRunsSnapshot().empty());
  { RunScope run{"c", 1.0}; }
  runs = TakeRunsSnapshot();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].run, 0);  // ids restart after Reset
}

}  // namespace
}  // namespace dcn::obs::flight
