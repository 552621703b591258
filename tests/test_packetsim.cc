#include "sim/packetsim.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "routing/abccc_routing.h"
#include "routing/multipath.h"
#include "routing/route.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::sim {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

Graph MakeRelayPair() {
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kSwitch);  // 1
  g.AddNode(NodeKind::kServer);  // 2
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  return g;
}

TEST(PacketSimTest, LowLoadLatencyIsNearHopCount) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.05;
  config.duration = 2000;
  config.warmup = 100;
  const PacketSimResult result = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  EXPECT_GT(result.measured, 50u);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_NEAR(result.DeliveredFraction(), 1.0, 1e-9);
  // Two links at service time 1 => ~2 time units with almost no queueing.
  EXPECT_NEAR(result.latency.Mean(), 2.0, 0.3);
}

TEST(PacketSimTest, OverloadDropsPackets) {
  // Two sources feed the same output link at combined load 1.6.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  PacketSimConfig config;
  config.offered_load = 0.8;
  config.duration = 1500;
  config.warmup = 300;
  config.queue_capacity = 8;
  const PacketSimResult result =
      RunPacketSim(g, {Route{{0, 2, 3}}, Route{{1, 2, 3}}}, config);
  EXPECT_GT(result.dropped, 0u);
  // The shared link delivers ~1 packet/time, offered ~1.6.
  EXPECT_NEAR(result.DeliveredFraction(), 1.0 / 1.6, 0.1);
}

TEST(PacketSimTest, DeterministicGivenSeed) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.4;
  config.duration = 500;
  config.seed = 99;
  const PacketSimResult a = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  const PacketSimResult b = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.latency.Mean(), b.latency.Mean());
}

TEST(PacketSimTest, ConservationOfMeasuredPackets) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.9;
  config.duration = 800;
  config.queue_capacity = 4;
  const PacketSimResult result = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  // Every measured packet ends as exactly one of delivered/dropped (the sim
  // drains all queues before returning).
  EXPECT_EQ(result.delivered + result.dropped, result.measured);
  EXPECT_GE(result.generated, result.measured);
}

TEST(PacketSimTest, LatencyGrowsWithLoad) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  dcn::Rng rng{5};
  const std::vector<Flow> flows = PermutationTraffic(net, rng);
  std::vector<Route> routes;
  for (const Flow& flow : flows) {
    routes.push_back(routing::AbcccRoute(net, flow.src, flow.dst));
  }
  PacketSimConfig low;
  low.offered_load = 0.05;
  low.duration = 400;
  low.warmup = 100;
  PacketSimConfig high = low;
  high.offered_load = 0.6;
  const PacketSimResult at_low = RunPacketSim(net.Network(), routes, low);
  const PacketSimResult at_high = RunPacketSim(net.Network(), routes, high);
  EXPECT_GT(at_high.latency.Mean(), at_low.latency.Mean());
  EXPECT_NEAR(at_low.DeliveredFraction(), 1.0, 0.01);
}

TEST(PacketSimTest, LinkStatisticsTrackTheBottleneck) {
  // Two sources share one output link at combined load ~1.6: the shared link
  // saturates (utilization ~1), queues fill to capacity.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kServer);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  PacketSimConfig config;
  config.offered_load = 0.8;
  config.duration = 1000;
  config.warmup = 200;
  config.queue_capacity = 6;
  const PacketSimResult result =
      RunPacketSim(g, {Route{{0, 2, 3}}, Route{{1, 2, 3}}}, config);
  EXPECT_NEAR(result.max_link_utilization, 1.0, 0.05);
  EXPECT_EQ(result.max_queue_depth, 6);
  EXPECT_GT(result.mean_link_utilization, 0.5);
  EXPECT_LE(result.mean_link_utilization, result.max_link_utilization);
}

TEST(PacketSimTest, LowLoadUtilizationMatchesOffered) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.1;
  config.duration = 3000;
  const PacketSimResult result = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  EXPECT_NEAR(result.max_link_utilization, 0.1, 0.02);
  EXPECT_LE(result.max_queue_depth, 6);
}

TEST(PacketSimMultipathTest, RoundRobinSpreadsOverParallelPaths) {
  // One source, two disjoint 2-link paths to the sink: spraying halves the
  // per-path load, so a 1.2 offered load becomes deliverable.
  Graph g;
  g.AddNode(NodeKind::kServer);  // 0
  g.AddNode(NodeKind::kSwitch);  // 1
  g.AddNode(NodeKind::kSwitch);  // 2
  g.AddNode(NodeKind::kServer);  // 3
  g.AddEdge(0, 1);
  g.AddEdge(1, 3);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  PacketSimConfig config;
  config.offered_load = 1.2;
  config.duration = 1000;
  config.warmup = 200;
  const std::vector<std::vector<Route>> candidates{
      {Route{{0, 1, 3}}, Route{{0, 2, 3}}}};
  const PacketSimResult sprayed =
      RunPacketSimMultipath(g, candidates, config, SprayPolicy::kRoundRobin);
  const PacketSimResult single = RunPacketSim(g, {Route{{0, 1, 3}}}, config);
  // NOTE: the source NIC is modeled as two independent links here, so the
  // sprayed variant genuinely has 2x egress capacity.
  EXPECT_GT(sprayed.DeliveredFraction(), 0.95);
  EXPECT_LT(single.DeliveredFraction(), 0.9);
}

TEST(PacketSimMultipathTest, RandomPolicyAlsoDeliversAndDiffers) {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kSwitch);
  g.AddNode(NodeKind::kSwitch);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(1, 3);
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  const std::vector<std::vector<Route>> candidates{
      {Route{{0, 1, 3}}, Route{{0, 2, 3}}}};
  PacketSimConfig config;
  config.offered_load = 0.6;
  config.duration = 800;
  const PacketSimResult rr =
      RunPacketSimMultipath(g, candidates, config, SprayPolicy::kRoundRobin);
  const PacketSimResult rnd = RunPacketSimMultipath(
      g, candidates, config, SprayPolicy::kRandomPerPacket);
  EXPECT_GT(rr.DeliveredFraction(), 0.99);
  EXPECT_GT(rnd.DeliveredFraction(), 0.95);
}

TEST(PacketSimMultipathTest, SingleRouteWrapperIsEquivalent) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.4;
  config.duration = 500;
  const PacketSimResult direct = RunPacketSim(g, {Route{{0, 1, 2}}}, config);
  const PacketSimResult via_multipath = RunPacketSimMultipath(
      g, {{Route{{0, 1, 2}}}}, config, SprayPolicy::kRandomPerPacket);
  EXPECT_EQ(direct.generated, via_multipath.generated);
  EXPECT_EQ(direct.delivered, via_multipath.delivered);
}

TEST(PacketSimMultipathTest, CandidateValidation) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  EXPECT_THROW(RunPacketSimMultipath(g, {{}}, config), dcn::InvalidArgument);
  // Mixed-origin candidates rejected.
  EXPECT_THROW(
      RunPacketSimMultipath(g, {{Route{{0, 1, 2}}, Route{{2, 1, 0}}}}, config),
      dcn::InvalidArgument);
}

TEST(PacketSimMultipathTest, SprayingOnAbcccRaisesDeliveredFraction) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  dcn::Rng rng{9};
  const std::vector<Flow> flows = PermutationTraffic(net, rng);
  std::vector<Route> single;
  std::vector<std::vector<Route>> sets;
  for (const Flow& flow : flows) {
    single.push_back(routing::AbcccRoute(net, flow.src, flow.dst));
    sets.push_back(routing::RotatedLevelOrderRoutes(net, flow.src, flow.dst));
  }
  PacketSimConfig config;
  config.offered_load = 0.6;
  config.duration = 500;
  config.warmup = 100;
  const PacketSimResult base = RunPacketSim(net.Network(), single, config);
  const PacketSimResult sprayed = RunPacketSimMultipath(
      net.Network(), sets, config, SprayPolicy::kRoundRobin);
  EXPECT_GE(sprayed.DeliveredFraction(), base.DeliveredFraction() - 0.02);
}

TEST(PacketSimTest, ConfigValidation) {
  const Graph g = MakeRelayPair();
  PacketSimConfig config;
  config.offered_load = 0.0;
  EXPECT_THROW(RunPacketSim(g, {Route{{0, 1, 2}}}, config), dcn::InvalidArgument);
  config.offered_load = 0.5;
  config.warmup = config.duration + 1;
  EXPECT_THROW(RunPacketSim(g, {Route{{0, 1, 2}}}, config), dcn::InvalidArgument);
  PacketSimConfig ok;
  EXPECT_THROW(RunPacketSim(g, {}, ok), dcn::InvalidArgument);
  EXPECT_THROW(RunPacketSim(g, {Route{{0}}}, ok), dcn::InvalidArgument);
}

}  // namespace
}  // namespace dcn::sim
