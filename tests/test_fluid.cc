#include "sim/fluid.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "sim/failures.h"
#include "sim/traffic.h"
#include "topology/abccc.h"

namespace dcn::sim {
namespace {

using graph::Graph;
using graph::NodeKind;
using routing::Route;

Graph MakeSharedLink() {
  Graph g;
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  return g;
}

TEST(FluidTest, SingleFlowDrainsAtCapacity) {
  const Graph g = MakeSharedLink();
  const FluidResult result = FluidCompletionTimes(g, {Route{{0, 1}}}, {5.0});
  EXPECT_DOUBLE_EQ(result.finish_time[0], 5.0);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_EQ(result.rate_recomputations, 1);
}

TEST(FluidTest, EqualFlowsShareThenNothingToRelease) {
  const Graph g = MakeSharedLink();
  const FluidResult result =
      FluidCompletionTimes(g, {Route{{0, 1}}, Route{{0, 1}}}, {1.0, 1.0});
  // Both at rate 0.5 until both finish at t=2.
  EXPECT_DOUBLE_EQ(result.finish_time[0], 2.0);
  EXPECT_DOUBLE_EQ(result.finish_time[1], 2.0);
}

TEST(FluidTest, ShortFlowFinishesAndReleasesCapacity) {
  const Graph g = MakeSharedLink();
  const FluidResult result =
      FluidCompletionTimes(g, {Route{{0, 1}}, Route{{0, 1}}}, {1.0, 3.0});
  // Phase 1: both at 0.5; flow 0 done at t=2 (flow 1 has 2 left).
  // Phase 2: flow 1 alone at 1.0; done at t=4.
  EXPECT_DOUBLE_EQ(result.finish_time[0], 2.0);
  EXPECT_DOUBLE_EQ(result.finish_time[1], 4.0);
  EXPECT_EQ(result.rate_recomputations, 2);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);
}

TEST(FluidTest, IndependentFlowsDoNotInteract) {
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(NodeKind::kServer);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const FluidResult result = FluidCompletionTimes(
      g, {Route{{0, 1}}, Route{{2, 3}}}, {2.0, 7.0});
  EXPECT_DOUBLE_EQ(result.finish_time[0], 2.0);
  EXPECT_DOUBLE_EQ(result.finish_time[1], 7.0);
}

TEST(FluidTest, UnroutableFlowNeverFinishes) {
  const Graph g = MakeSharedLink();
  const FluidResult result =
      FluidCompletionTimes(g, {Route{{0, 1}}, Route{}}, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(result.finish_time[0], 1.0);
  EXPECT_TRUE(std::isinf(result.finish_time[1]));
  EXPECT_DOUBLE_EQ(result.makespan, 1.0);
}

TEST(FluidTest, CapacityScalesTime) {
  const Graph g = MakeSharedLink();
  const FluidResult slow = FluidCompletionTimes(g, {Route{{0, 1}}}, {10.0}, 1.0);
  const FluidResult fast = FluidCompletionTimes(g, {Route{{0, 1}}}, {10.0}, 10.0);
  EXPECT_DOUBLE_EQ(slow.finish_time[0], 10.0 * fast.finish_time[0]);
}

TEST(FluidTest, Preconditions) {
  const Graph g = MakeSharedLink();
  EXPECT_THROW(FluidCompletionTimes(g, {Route{{0, 1}}}, {}), dcn::InvalidArgument);
  EXPECT_THROW(FluidCompletionTimes(g, {Route{{0, 1}}}, {0.0}),
               dcn::InvalidArgument);
}

TEST(FluidTest, FaultsThatKillNoLiveFlowKeepTheRates) {
  // 0 - 1 carries the flow; 2 - 3 is a spare link no route crosses.
  Graph g = MakeSharedLink();
  g.AddNode(NodeKind::kServer);
  g.AddNode(NodeKind::kServer);
  const graph::EdgeId spare = g.AddEdge(2, 3);
  const FluidResult plain = FluidCompletionTimes(g, {Route{{0, 1}}}, {5.0});
  FaultSchedule schedule;
  schedule.DegradeLink(1.0, 0, 1).RestoreLink(2.0, 0).DegradeLink(3.0, 0, 1);
  schedule.KillLink(3.5, spare).KillNode(4.0, 3);
  const FluidResult faulted =
      FluidCompletionTimes(g, {Route{{0, 1}}}, {5.0}, schedule);
  EXPECT_EQ(faulted.rate_recomputations, 1);
  EXPECT_EQ(faulted.killed_flows, 0u);
  EXPECT_EQ(faulted.finish_time, plain.finish_time);
  EXPECT_EQ(faulted.makespan, plain.makespan);
}

TEST(FluidTest, KillsRecomputeAtMostOncePerFlow) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  dcn::Rng rng{9};
  std::vector<Route> routes;
  std::vector<double> bytes;
  for (const Flow& flow : PermutationTraffic(net, rng)) {
    routes.push_back(Route{net.Route(flow.src, flow.dst)});
    bytes.push_back(1.0 + rng.NextDouble() * 9.0);
  }
  FaultSchedule schedule;
  for (int i = 0; i < 6; ++i) {
    const double time = 0.5 * i;
    const auto edge = static_cast<graph::EdgeId>(
        rng.NextUint64(net.Network().EdgeCount()));
    schedule.KillLink(time, edge).DegradeLink(time + 0.1, edge, 1);
  }
  const FluidResult result =
      FluidCompletionTimes(net.Network(), routes, bytes, schedule);
  EXPECT_GT(result.killed_flows, 0u);
  EXPECT_LE(result.rate_recomputations, static_cast<int>(routes.size()));
}

TEST(FluidTest, PermutationOnAbcccCompletesEverything) {
  const topo::Abccc net{topo::AbcccParams{4, 1, 2}};
  dcn::Rng rng{7};
  std::vector<Route> routes;
  std::vector<double> bytes;
  for (const Flow& flow : PermutationTraffic(net, rng)) {
    routes.push_back(Route{net.Route(flow.src, flow.dst)});
    bytes.push_back(1.0 + rng.NextDouble() * 9.0);
  }
  const FluidResult result = FluidCompletionTimes(net.Network(), routes, bytes);
  for (std::size_t f = 0; f < routes.size(); ++f) {
    EXPECT_TRUE(std::isfinite(result.finish_time[f]));
    // A flow can never beat its solo time bytes / capacity.
    EXPECT_GE(result.finish_time[f], bytes[f] - 1e-9);
  }
  EXPECT_LE(result.rate_recomputations, static_cast<int>(routes.size()));
}

}  // namespace
}  // namespace dcn::sim
