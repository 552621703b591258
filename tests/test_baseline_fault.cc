#include "routing/baseline_fault.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/route.h"
#include "sim/failures.h"

namespace dcn::routing {
namespace {

using topo::Bcube;
using topo::BcubeParams;
using topo::Dcell;
using topo::DcellParams;
using topo::Digits;
using topo::FatTree;
using topo::FatTreeParams;

// ---------------------------------------------------------------------------
// BCube
// ---------------------------------------------------------------------------

TEST(BcubeFaultTest, NoFailuresFixesDigitsDirectly) {
  const Bcube net{BcubeParams{4, 2}};
  graph::FailureSet failures{net.Network()};
  dcn::Rng rng{1};
  FaultRoutingStats stats;
  const Route route =
      BcubeFaultTolerantRoute(net, 0, 63, failures, rng, {}, &stats);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(ValidateRoute(net.Network(), route), "");
  EXPECT_EQ(stats.digit_fixes, 3);
  EXPECT_EQ(stats.plane_detours, 0);
  EXPECT_FALSE(stats.used_fallback);
}

TEST(BcubeFaultTest, DetoursAroundADeadSwitch) {
  const Bcube net{BcubeParams{4, 1}};
  const graph::NodeId src = net.ServerAt(Digits{0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{3, 0}, 0);  // differs at level 0
  graph::FailureSet failures{net.Network()};
  failures.KillNode(net.LevelSwitchAt(0, Digits{0, 0}));
  dcn::Rng rng{2};
  FaultRoutingOptions options;
  options.allow_bfs_fallback = false;
  FaultRoutingStats stats;
  const Route route =
      BcubeFaultTolerantRoute(net, src, dst, failures, rng, options, &stats);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(ValidateRoute(net.Network(), route, &failures), "");
  EXPECT_GT(stats.plane_detours, 0);
}

TEST(BcubeFaultTest, SucceedsIffReachableWithFallback) {
  const Bcube net{BcubeParams{3, 2}};
  dcn::Rng fail_rng{31};
  const graph::FailureSet failures =
      sim::RandomFailures(net, 0.1, 0.1, 0.05, fail_rng);
  dcn::Rng rng{32};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const Route route = BcubeFaultTolerantRoute(net, src, dst, failures, rng);
    const bool reachable =
        !graph::ShortestPath(net.Network(), src, dst, &failures).empty();
    ASSERT_EQ(!route.Empty(), reachable);
    if (!route.Empty()) {
      ASSERT_EQ(ValidateRoute(net.Network(), route, &failures), "");
    }
  }
}

TEST(BcubeFaultTest, DeadEndpointsReturnEmpty) {
  const Bcube net{BcubeParams{4, 1}};
  graph::FailureSet failures{net.Network()};
  failures.KillNode(3);
  dcn::Rng rng{3};
  EXPECT_TRUE(BcubeFaultTolerantRoute(net, 3, 7, failures, rng).Empty());
  EXPECT_TRUE(BcubeFaultTolerantRoute(net, 7, 3, failures, rng).Empty());
}

// ---------------------------------------------------------------------------
// DCell
// ---------------------------------------------------------------------------

TEST(DcellFaultTest, NoFailuresMatchesPreferredRoute) {
  const Dcell net{DcellParams{4, 1}};
  graph::FailureSet failures{net.Network()};
  dcn::Rng rng{4};
  const Route route = ProxyRepairRoute(net, 0, 17, failures, rng);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(route.hops, net.Route(0, 17));
}

TEST(DcellFaultTest, ProxiesAroundADeadInterCellLink) {
  const Dcell net{DcellParams{4, 1}};
  // Kill the direct 0<->4 level-1 link (sub-cell 0 to sub-cell 1).
  graph::FailureSet failures{net.Network()};
  const graph::EdgeId direct = net.Network().FindEdge(0, 4);
  ASSERT_NE(direct, graph::kInvalidEdge);
  failures.KillEdge(direct);
  dcn::Rng rng{5};
  FaultRoutingOptions options;
  options.allow_bfs_fallback = false;
  FaultRoutingStats stats;
  const Route route =
      ProxyRepairRoute(net, 0, 4, failures, rng, options, &stats);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(ValidateRoute(net.Network(), route, &failures), "");
  EXPECT_GT(stats.plane_detours, 0);
}

TEST(DcellFaultTest, SucceedsIffReachableWithFallback) {
  const Dcell net{DcellParams{4, 1}};
  dcn::Rng fail_rng{41};
  const graph::FailureSet failures =
      sim::RandomFailures(net, 0.1, 0.1, 0.1, fail_rng);
  dcn::Rng rng{42};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 60; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const Route route = ProxyRepairRoute(net, src, dst, failures, rng);
    const bool reachable =
        !graph::ShortestPath(net.Network(), src, dst, &failures).empty();
    ASSERT_EQ(!route.Empty(), reachable);
    if (!route.Empty()) {
      ASSERT_EQ(ValidateRoute(net.Network(), route, &failures), "");
    }
  }
}

// ---------------------------------------------------------------------------
// Fat-tree
// ---------------------------------------------------------------------------

TEST(FatTreeEcmpTest, CandidateCountsMatchLocality) {
  const FatTree net{FatTreeParams{4}};
  // Same edge switch: exactly 1 candidate.
  EXPECT_EQ(FatTreeEcmpRoutes(net, net.ServerIdOf(0, 0, 0),
                              net.ServerIdOf(0, 0, 1))
                .size(),
            1u);
  // Same pod: k/2 = 2.
  EXPECT_EQ(FatTreeEcmpRoutes(net, net.ServerIdOf(0, 0, 0),
                              net.ServerIdOf(0, 1, 0))
                .size(),
            2u);
  // Cross pod: (k/2)^2 = 4.
  const auto cross = FatTreeEcmpRoutes(net, net.ServerIdOf(0, 0, 0),
                                       net.ServerIdOf(2, 1, 1));
  EXPECT_EQ(cross.size(), 4u);
  for (const Route& route : cross) {
    EXPECT_EQ(ValidateRoute(net.Network(), route), "");
    EXPECT_EQ(route.LinkCount(), 6u);
  }
}

TEST(FatTreeFaultTest, RehashesAroundADeadCore) {
  const FatTree net{FatTreeParams{4}};
  const graph::NodeId src = net.ServerIdOf(0, 0, 0);
  const graph::NodeId dst = net.ServerIdOf(1, 0, 0);
  graph::FailureSet failures{net.Network()};
  failures.KillNode(net.CoreSwitch(0));
  failures.KillNode(net.CoreSwitch(1));  // kill agg-0's whole core group
  dcn::Rng rng{6};
  FaultRoutingOptions options;
  options.allow_bfs_fallback = false;
  FaultRoutingStats stats;
  const Route route =
      FatTreeFaultTolerantRoute(net, src, dst, failures, rng, options, &stats);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(ValidateRoute(net.Network(), route, &failures), "");
}

TEST(FatTreeFaultTest, EdgeSwitchLossKillsItsHosts) {
  const FatTree net{FatTreeParams{4}};
  const graph::NodeId src = net.ServerIdOf(0, 0, 0);
  const graph::NodeId dst = net.ServerIdOf(1, 0, 0);
  graph::FailureSet failures{net.Network()};
  failures.KillNode(net.EdgeSwitch(0, 0));
  dcn::Rng rng{7};
  // Both endpoints alive, but src's only uplink is gone: no route even with
  // fallback.
  EXPECT_TRUE(FatTreeFaultTolerantRoute(net, src, dst, failures, rng).Empty());
}

TEST(FatTreeFaultTest, SucceedsIffReachableWithFallback) {
  const FatTree net{FatTreeParams{4}};
  dcn::Rng fail_rng{51};
  const graph::FailureSet failures =
      sim::RandomFailures(net, 0.0, 0.15, 0.05, fail_rng);
  dcn::Rng rng{52};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const Route route = FatTreeFaultTolerantRoute(net, src, dst, failures, rng);
    const bool reachable =
        !graph::ShortestPath(net.Network(), src, dst, &failures).empty();
    ASSERT_EQ(!route.Empty(), reachable);
  }
}

// ---------------------------------------------------------------------------
// Generic proxy repair (used by FiConn and any Topology)
// ---------------------------------------------------------------------------

TEST(ProxyRepairTest, FiConnSucceedsIffReachableWithFallback) {
  const topo::FiConn net{8, 2};
  dcn::Rng fail_rng{61};
  const graph::FailureSet failures =
      sim::RandomFailures(net, 0.05, 0.05, 0.05, fail_rng);
  dcn::Rng rng{62};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 50; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const Route route = ProxyRepairRoute(net, src, dst, failures, rng);
    const bool reachable =
        !graph::ShortestPath(net.Network(), src, dst, &failures).empty();
    ASSERT_EQ(!route.Empty(), reachable);
    if (!route.Empty()) {
      ASSERT_EQ(ValidateRoute(net.Network(), route, &failures), "");
    }
  }
}

TEST(ProxyRepairTest, FiConnProxiesAroundADeadLevelLink) {
  const topo::FiConn net{4, 1};
  // Kill the 1<->5 level-1 link between copies 0 and 1.
  graph::FailureSet failures{net.Network()};
  const graph::EdgeId direct = net.Network().FindEdge(1, 5);
  ASSERT_NE(direct, graph::kInvalidEdge);
  failures.KillEdge(direct);
  dcn::Rng rng{63};
  FaultRoutingOptions options;
  options.allow_bfs_fallback = false;
  FaultRoutingStats stats;
  const Route route = ProxyRepairRoute(net, 0, 4, failures, rng, options, &stats);
  ASSERT_FALSE(route.Empty());
  EXPECT_EQ(ValidateRoute(net.Network(), route, &failures), "");
  EXPECT_GT(stats.plane_detours, 0);
}

TEST(ProxyRepairTest, MatchesNativeRouteWhenHealthy) {
  const topo::FiConn net{4, 2};
  graph::FailureSet failures{net.Network()};
  dcn::Rng rng{64};
  const Route route = ProxyRepairRoute(net, 0, 40, failures, rng);
  EXPECT_EQ(route.hops, net.Route(0, 40));
}

}  // namespace
}  // namespace dcn::routing
