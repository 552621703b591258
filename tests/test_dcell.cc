#include "topology/dcell.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "graph/bfs.h"
#include "routing/route.h"

namespace dcn::topo {
namespace {

TEST(DcellParamsTest, RecurrenceAndValidation) {
  EXPECT_EQ((DcellParams{4, 0}.ServerTotal()), 4u);
  EXPECT_EQ((DcellParams{4, 1}.ServerTotal()), 20u);    // 4*5
  EXPECT_EQ((DcellParams{4, 2}.ServerTotal()), 420u);   // 20*21
  EXPECT_EQ((DcellParams{2, 2}.ServerTotal()), 42u);    // 2 -> 6 -> 42
  EXPECT_EQ((DcellParams{3, 1}.ServerTotal()), 12u);
  EXPECT_THROW((DcellParams{1, 1}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((DcellParams{2, -1}.Validate()), dcn::InvalidArgument);
  EXPECT_THROW((DcellParams{2, 5}.Validate()), dcn::InvalidArgument);
}

class DcellSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  DcellParams P() const {
    const auto [n, k] = GetParam();
    return DcellParams{n, k};
  }
};

TEST_P(DcellSweep, CountsMatchFormulas) {
  const DcellParams p = P();
  const Dcell net{p};
  EXPECT_EQ(net.ServerCount(), p.ServerTotal());
  EXPECT_EQ(net.SwitchCount(), p.SwitchTotal());
  EXPECT_EQ(net.LinkCount(), p.LinkTotal());
}

TEST_P(DcellSweep, ServerDegreeIsKPlusOne) {
  const DcellParams p = P();
  const Dcell net{p};
  for (const graph::NodeId server : net.Servers()) {
    EXPECT_EQ(net.Network().Degree(server), static_cast<std::size_t>(p.k + 1));
  }
  EXPECT_EQ(net.ServerPorts(), p.k + 1);
}

TEST_P(DcellSweep, MiniSwitchDegreeIsN) {
  const DcellParams p = P();
  const Dcell net{p};
  const graph::Graph& g = net.Network();
  for (graph::NodeId node = 0; static_cast<std::size_t>(node) < g.NodeCount();
       ++node) {
    if (g.IsSwitch(node)) {
      EXPECT_EQ(g.Degree(node), static_cast<std::size_t>(p.n));
    }
  }
}

TEST_P(DcellSweep, Connected) {
  const Dcell net{P()};
  EXPECT_TRUE(graph::IsConnected(net.Network()));
}

TEST_P(DcellSweep, RoutesValidAndWithinBound) {
  const Dcell net{P()};
  dcn::Rng rng{55};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 60; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    EXPECT_EQ(routing::ValidateRoute(net.Network(), route), "")
        << net.Describe() << " " << src << "->" << dst;
    EXPECT_LE(static_cast<int>(route.LinkCount()), net.RouteLengthBound());
    EXPECT_EQ(route.Src(), src);
    EXPECT_EQ(route.Dst(), dst);
  }
}

TEST_P(DcellSweep, RouteNeverShorterThanBfs) {
  const Dcell net{P()};
  dcn::Rng rng{66};
  const auto servers = net.Servers();
  for (int trial = 0; trial < 10; ++trial) {
    const graph::NodeId src = servers[rng.NextUint64(servers.size())];
    const std::vector<int> dist = graph::BfsDistances(net.Network(), src);
    const graph::NodeId dst = servers[rng.NextUint64(servers.size())];
    const routing::Route route{net.Route(src, dst)};
    EXPECT_GE(static_cast<int>(route.LinkCount()), dist[dst]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DcellSweep,
                         ::testing::Values(std::tuple{2, 0}, std::tuple{2, 1},
                                           std::tuple{2, 2}, std::tuple{3, 1},
                                           std::tuple{3, 2}, std::tuple{4, 1},
                                           std::tuple{4, 2}, std::tuple{6, 1}));

TEST(DcellTest, Level1LinkRule) {
  // In DCell(4,1): sub-cell i's server j-1 links to sub-cell j's server i.
  const Dcell net{DcellParams{4, 1}};
  const graph::Graph& g = net.Network();
  // (i=0, j=1): server 0 of sub-cell 0 (uid 0) <-> server 0 of sub-cell 1 (uid 4).
  EXPECT_TRUE(g.Adjacent(0, 4));
  // (i=2, j=4): server uid 2*4+3 = 11 <-> uid 4*4+2 = 18.
  EXPECT_TRUE(g.Adjacent(11, 18));
  EXPECT_FALSE(g.Adjacent(0, 5));
}

TEST(DcellTest, SameCellRouteGoesThroughMiniSwitch) {
  const Dcell net{DcellParams{4, 1}};
  const routing::Route route{net.Route(0, 2)};
  ASSERT_EQ(route.hops.size(), 3u);
  EXPECT_EQ(route.hops[1], net.SwitchOf(0));
  EXPECT_EQ(net.SwitchOf(0), net.SwitchOf(2));
}

TEST(DcellTest, SelfRouteTrivial) {
  const Dcell net{DcellParams{4, 1}};
  EXPECT_EQ(net.Route(7, 7), std::vector<graph::NodeId>{7});
}

TEST(DcellTest, DescribeAndLabels) {
  const Dcell net{DcellParams{4, 1}};
  EXPECT_EQ(net.Describe(), "DCell(n=4,k=1)");
  EXPECT_EQ(net.Name(), "DCell");
  EXPECT_EQ(net.NodeLabel(13), "[3,1]");
}

}  // namespace
}  // namespace dcn::topo
