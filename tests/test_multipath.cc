#include "routing/multipath.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include <set>
#include <tuple>

#include "common/rng.h"
#include "reference.h"
#include "routing/route.h"
#include "topology/abccc.h"
#include "topology/bcube.h"

namespace dcn::routing {
namespace {

using topo::Abccc;
using topo::AbcccParams;
using topo::Digits;

TEST(MultipathTest, RotatedRoutesAreValidAndStartOnDistinctPlanes) {
  const AbcccParams p{4, 2, 2};
  const Abccc net{p};
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{1, 2, 3}, 0);
  const std::vector<Route> routes = RotatedLevelOrderRoutes(net, src, dst);
  ASSERT_EQ(routes.size(), 3u);  // one rotation per differing level
  std::set<graph::NodeId> first_switches;
  for (const Route& route : routes) {
    EXPECT_EQ(ValidateRoute(net.Network(), route), "");
    EXPECT_EQ(route.Src(), src);
    EXPECT_EQ(route.Dst(), dst);
    // hops[1] is the first relay: crossbar or level switch.
    first_switches.insert(route.hops[1]);
  }
  // The rotations must not all enter the fabric the same way.
  EXPECT_GE(first_switches.size(), 2u);
}

TEST(MultipathTest, SameRowPairYieldsSingleCrossbarRoute) {
  const Abccc net{AbcccParams{4, 2, 2}};
  const graph::NodeId a = net.ServerAtRow(5, 0);
  const graph::NodeId b = net.ServerAtRow(5, 1);
  const std::vector<Route> routes = RotatedLevelOrderRoutes(net, a, b);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].LinkCount(), 2u);
}

TEST(MultipathTest, MaxDisjointMatchesReferenceCut) {
  const Abccc net{AbcccParams{3, 1, 2}};
  dcn::Rng rng{21};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 15; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    if (src == dst) continue;
    const std::vector<Route> routes = MaxDisjointRoutes(net, src, dst);
    EXPECT_EQ(routes.size(), static_cast<std::size_t>(ReferenceCut(
                                 net.Network().Csr(), src, dst)));
    for (const Route& route : routes) {
      EXPECT_EQ(ValidateRoute(net.Network(), route), "");
    }
  }
}

TEST(MultipathTest, DualPortServersHaveTwoDisjointPaths) {
  // In BCCC-style ABCCC (c=2) a server has 2 ports, so cross-row pairs have
  // exactly 2 link-disjoint paths (bounded by NIC count).
  const Abccc net{AbcccParams{4, 2, 2}};
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{1, 2, 3}, 1);
  EXPECT_EQ(MaxDisjointRoutes(net, src, dst).size(), 2u);
}

TEST(MultipathTest, BcubeAllDigitsDifferGivesKPlusOnePaths) {
  const topo::Bcube net{topo::BcubeParams{4, 1}};
  const graph::NodeId src = net.ServerAt(Digits{0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{1, 1}, 0);
  const std::vector<Route> routes = MaxDisjointRoutes(net, src, dst);
  EXPECT_EQ(routes.size(), 2u);  // k+1 parallel paths
}

TEST(MultipathTest, MaxPathsCapRespected) {
  const topo::Bcube net{topo::BcubeParams{4, 2}};
  const std::vector<Route> routes = MaxDisjointRoutes(net, 0, 63, 2);
  EXPECT_EQ(routes.size(), 2u);
}

TEST(MultipathTest, RotatedRoutesLengthsAreNearEqual) {
  // "Multiple near-equal parallel paths": rotations differ by at most the
  // two crossbar hops saved at the ends.
  const Abccc net{AbcccParams{4, 3, 2}};
  const graph::NodeId src = net.ServerAt(Digits{0, 0, 0, 0}, 0);
  const graph::NodeId dst = net.ServerAt(Digits{1, 2, 3, 1}, 3);
  const std::vector<Route> routes = RotatedLevelOrderRoutes(net, src, dst);
  std::size_t shortest = routes[0].LinkCount(), longest = routes[0].LinkCount();
  for (const Route& route : routes) {
    shortest = std::min(shortest, route.LinkCount());
    longest = std::max(longest, route.LinkCount());
  }
  EXPECT_LE(longest - shortest, 4u);
}

}  // namespace
}  // namespace dcn::routing
