// Pinned workloads: seven fixed kernels on ABCCC(n=4, k=3, c=2) at the bench
// seed (pair cuts also on a small instance whose sampled sources repeat),
// with the work they do pinned as exact integer counters and their results
// pinned against the reference kernels in tests/reference.h, at DCN_THREADS
// 1, 3 and 7. The counters are pure functions of the workload,
// so a kernel that changes its work — fewer bottom-up MS-BFS levels, lost
// Dinic level reuse, a larger repair cone, a different event count — fails
// here whatever its speed. Timing is perfbench's job, not this file's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "graph/paths.h"
#include "graph/workspace.h"
#include "metrics/bisection.h"
#include "metrics/path_metrics.h"
#include "metrics/resilience.h"
#include "obs/obs.h"
#include "reference.h"
#include "routing/route.h"
#include "sim/failures.h"
#include "sim/packetsim.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn {
namespace {

constexpr std::uint64_t kSeed = 0xabccc2015;  // the bench default seed

class PinnedWorkloadTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    SetThreadCount(GetParam());
    obs::Reset();
  }
  void TearDown() override {
    SetThreadCount(0);
    obs::Reset();
  }

  const topo::Abccc net_{topo::AbcccParams{4, 3, 2}};
  const graph::Graph& g_ = net_.Network();
};

std::vector<routing::Route> PermutationRoutes(const topo::Topology& net) {
  Rng rng{kSeed};
  return sim::NativeRoutes(net, sim::PermutationTraffic(net, rng));
}

TEST_P(PinnedWorkloadTest, ExactPathsMatchPerSourceBfsWithPinnedLevelDirections) {
  const metrics::ExactPathStats stats = metrics::ExactServerPathStats(net_);
  // Direction-optimizing switch: 0.764706 of the levels run bottom-up.
  EXPECT_EQ(obs::CounterValue("msbfs/levels_bottom_up"), 208u);
  EXPECT_EQ(obs::CounterValue("msbfs/levels_top_down"), 64u);

  // The per-source sweep the bit-parallel kernel replaced: same integer
  // accumulation, same final division.
  const auto servers = net_.Servers();
  std::vector<std::uint64_t> histogram(stats.pairs_at_distance.size(), 0);
  std::int64_t total = 0;
  std::uint64_t pairs = 0;
  int diameter = 0;
  for (const graph::NodeId src : servers) {
    const std::vector<int> dist = ReferenceBfs(g_, src);
    for (const graph::NodeId dst : servers) {
      if (dst == src) continue;
      const int d = dist[static_cast<std::size_t>(dst)];
      ASSERT_GE(d, 0);
      const auto bin = static_cast<std::size_t>(d);
      if (bin >= histogram.size()) histogram.resize(bin + 1, 0);
      ++histogram[bin];
      diameter = std::max(diameter, d);
      total += d;
      ++pairs;
    }
  }
  EXPECT_TRUE(stats.connected);
  EXPECT_EQ(stats.pairs, pairs);
  EXPECT_EQ(stats.diameter, diameter);
  EXPECT_EQ(stats.pairs_at_distance, histogram);
  EXPECT_EQ(stats.average, static_cast<double>(total) / static_cast<double>(pairs));
}

TEST_P(PinnedWorkloadTest, DinicCutBetweenFarServersMatchesReference) {
  const auto servers = net_.Servers();
  const graph::NodeId src = servers.front();
  const graph::NodeId dst = servers.back();
  graph::FlowScope ws;
  EXPECT_EQ(graph::EdgeConnectivityBatch(g_.Csr(), *ws).Connectivity(src, dst),
            2u);  // = c
  ReferenceUnitFlow flow{g_.Csr(), nullptr, *ws};
  EXPECT_EQ(flow.Run(src, dst), 2u);
}

TEST_P(PinnedWorkloadTest, SampledPairCutsMatchReferenceWithPinnedReuse) {
  // Source-shared batch Dinic. Each chunk of 8 queries builds its arcs once
  // and the other 7 restore pristine capacities (reuse_hits: 0.875 of the
  // solves), and a query whose source repeats starts from the cached
  // first-phase levels (source_level_hits). The 64 sources drawn on
  // ABCCC(4,3,2) are distinct; on the 18-server ABCCC(3,1,2) they repeat.
  struct Pinned {
    const topo::Topology* net;
    std::uint64_t reuse_hits;
    std::uint64_t source_level_hits;
  };
  const topo::Abccc small{topo::AbcccParams{3, 1, 2}};
  for (const Pinned& pin : {Pinned{&net_, 56, 0}, Pinned{&small, 56, 43}}) {
    SCOPED_TRACE(pin.net->Describe());
    constexpr std::size_t kPairs = 64;
    obs::Reset();
    Rng rng{kSeed};
    const metrics::PairCutStats batched =
        metrics::SampledPairCuts(*pin.net, kPairs, rng);
    EXPECT_EQ(obs::CounterValue("dinic/unit_solves"), kPairs);
    EXPECT_EQ(obs::CounterValue("dinic/reuse_hits"), pin.reuse_hits);
    EXPECT_EQ(obs::CounterValue("dinic/source_level_hits"),
              pin.source_level_hits);

    Rng ref_rng{kSeed};
    const metrics::PairCutStats reference =
        ReferenceSampledPairCuts(*pin.net, kPairs, ref_rng);
    EXPECT_EQ(batched.pairs, reference.pairs);
    EXPECT_EQ(batched.min_cut, reference.min_cut);
    EXPECT_EQ(batched.mean_cut, reference.mean_cut);
    EXPECT_EQ(batched.cuts.Buckets(), reference.cuts.Buckets());
  }
}

TEST_P(PinnedWorkloadTest, FaultTrialsMatchReferenceWithPinnedRepairCone) {
  constexpr std::size_t kSamplePairs = 128;
  constexpr std::size_t kSampleSwitches = 16;
  Rng rng{kSeed};
  const double repaired = metrics::WorstSingleSwitchDisconnection(
      net_, kSamplePairs, kSampleSwitches, rng);
  // Intact-forest cone repair: 0.0114339 of the nodes are re-leveled.
  EXPECT_EQ(obs::CounterValue("resilience/repair_cone_nodes"), 281u);
  EXPECT_EQ(obs::CounterValue("resilience/repair_total_nodes"), 24576u);

  Rng ref_rng{kSeed};
  EXPECT_EQ(repaired, ReferenceWorstSingleSwitch(net_, kSamplePairs,
                                                 kSampleSwitches, ref_rng));
}

TEST_P(PinnedWorkloadTest, CutTreeTakesOneSolvePerNonRootNode) {
  metrics::AllPairsCutStats(net_);
  EXPECT_EQ(obs::CounterValue("cuttree/solves"), g_.NodeCount() - 1);
  EXPECT_EQ(obs::CounterValue("cuttree/solves"), 1535u);
}

TEST_P(PinnedWorkloadTest, PacketSimEventsAndTelemetryArePinned) {
  sim::PacketSimConfig config;
  config.offered_load = 0.5;
  config.duration = 100.0;
  config.warmup = 20.0;
  const sim::PacketSimResult result =
      sim::RunPacketSim(g_, PermutationRoutes(net_), config);
  EXPECT_EQ(obs::CounterValue("packetsim/events"), 451573u);
  // Sketch quantiles are deterministic bucket walks; they print as
  // 10.2782 / 12.3053 with %.6g.
  EXPECT_EQ(result.telemetry.slowdown.Quantile(0.99), 10.278225915562064);
  EXPECT_EQ(result.telemetry.slowdown.Quantile(0.999), 12.305344364474362);
  EXPECT_EQ(result.telemetry.latency.Buckets().size() +
                result.telemetry.slowdown.Buckets().size(),
            321u);
}

TEST_P(PinnedWorkloadTest, MonitorDetectsBusiestLinkKillWithoutFalseAlarms) {
  // The F24 kernel: a light, drop-free load with the health monitor on, and
  // the busiest directed link's cable killed mid-run.
  const std::vector<routing::Route> routes = PermutationRoutes(net_);
  std::vector<std::uint32_t> link_flows(2 * g_.EdgeCount(), 0);
  for (const routing::Route& route : routes) {
    for (const std::uint64_t link : routing::RouteDirectedLinks(g_, route)) {
      ++link_flows[link];
    }
  }
  graph::EdgeId busiest = 0;
  for (graph::EdgeId edge = 1; edge < static_cast<graph::EdgeId>(g_.EdgeCount());
       ++edge) {
    if (std::max(link_flows[2 * edge], link_flows[2 * edge + 1]) >
        std::max(link_flows[2 * busiest], link_flows[2 * busiest + 1])) {
      busiest = edge;
    }
  }
  sim::PacketSimConfig config;
  config.offered_load = 0.1;
  config.duration = 320.0;
  config.warmup = 80.0;
  config.queue_capacity = 64;
  config.monitor.enabled = true;
  config.monitor.window_width = 20.0;
  const sim::PacketSimResult control = sim::RunPacketSim(g_, routes, config);
  EXPECT_EQ(control.monitor.FireCount(), 0u);

  config.faults.KillLink(160.0, busiest);
  const sim::PacketSimResult faulted = sim::RunPacketSim(g_, routes, config);
  EXPECT_EQ(faulted.monitor.FireCount(), 4u);
  const std::vector<sim::DetectionOutcome> outcomes =
      sim::MatchDetections(g_, config.faults, faulted.monitor);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].detected);
  EXPECT_EQ(outcomes[0].ttd, 2 * config.monitor.window_width);
}

INSTANTIATE_TEST_SUITE_P(Threads, PinnedWorkloadTest, ::testing::Values(1, 3, 7));

}  // namespace
}  // namespace dcn
